//! # skyrise-sim — deterministic discrete-event simulation kernel
//!
//! The foundation of the Skyrise evaluation platform: a single-threaded
//! async executor whose clock is *virtual*. Infrastructure models (networks,
//! storage services, FaaS platforms) are ordinary `async fn`s that sleep on
//! the virtual clock; a simulated multi-day experiment completes in
//! milliseconds and is bit-for-bit reproducible from its seed.
//!
//! ## Modules
//! * [`executor`] — the [`Sim`] event loop, task spawning, virtual sleep
//! * [`time`] — [`SimTime`] / [`SimDuration`]
//! * [`rng`] — seeded RNG and heavy-tailed latency distributions
//! * [`sync`] — the FIFO counting semaphore
//! * [`metrics`] — interval throughput series, latency histograms, stats
//! * [`telemetry`] — deterministic metric registry (counters, gauges,
//!   latency sketches, utilization timelines) + Prometheus/JSONL export
//! * [`trace`] — virtual-time spans/events, Chrome-trace + JSONL export
//! * [`sanitizer`] — runtime determinism checks + per-event state digest
//! * [`faults`] — seeded fault-injection plan queried by the models
//! * [`slab`] / [`timer_heap`] — the executor's generation-indexed task
//!   table and cancellation-aware timer queue (exposed for the oracle
//!   property tests in `tests/parallel_determinism.rs`)

#![warn(missing_docs)]

pub mod executor;
pub mod faults;
pub mod metrics;
pub mod rng;
pub mod sanitizer;
pub mod slab;
pub mod sync;
pub mod telemetry;
pub mod time;
pub mod timer_heap;
pub mod trace;

pub use executor::{first_completed, join_all, race, Either, JoinHandle, Sim, SimCtx};
pub use faults::{FaultConfig, FaultPlan, FaultStats, StorageFault};
pub use metrics::{Histogram, HistogramSummary, IntervalSeries};
pub use rng::{LatencyDist, SimRng};
pub use sanitizer::{DigestCheckpoint, Sanitizer, SanitizerReport};
pub use slab::{Slab, SlabKey};
pub use telemetry::{
    Counter, Gauge, HistogramHandle, MetricRegistry, MetricsSnapshot, TimelineHandle,
    TimelineSnapshot,
};
pub use time::{SimDuration, SimTime};
pub use timer_heap::{TimerHeap, TimerKey};
pub use trace::{
    chrome_trace_json_multi, jsonl_multi, AttrValue, EventKind, Span, TraceEvent, Tracer,
};

/// Bytes in one kibibyte.
pub const KIB: u64 = 1024;
/// Bytes in one mebibyte.
pub const MIB: u64 = 1024 * 1024;
/// Bytes in one gibibyte.
pub const GIB: u64 = 1024 * 1024 * 1024;

/// 64-bit FNV-1a offset basis. Single source of truth for every FNV-1a
/// hash in the workspace (the sanitizer's state digest, the engine's
/// shuffle partition hash) so the constants cannot silently diverge.
pub const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a prime (2^40 + 2^8 + 0xb3).
pub const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold bytes into a running 64-bit FNV-1a hash.
#[inline]
pub fn fnv1a64_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV64_PRIME);
    }
    h
}

/// 64-bit FNV-1a hash of a byte slice.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_fold(FNV64_OFFSET, bytes)
}

#[cfg(test)]
mod fnv_tests {
    use super::*;

    /// Pin the published FNV-1a 64 test vectors so neither constant can
    /// regress (the engine shipped with a truncated prime once).
    #[test]
    fn fnv1a64_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fold_is_streaming() {
        let whole = fnv1a64(b"foobar");
        let split = fnv1a64_fold(fnv1a64(b"foo"), b"bar");
        assert_eq!(whole, split);
    }
}
