//! Determinism of the tracing subsystem: running the same experiment
//! twice with identical seeds must yield byte-identical Chrome-trace JSON
//! (and result JSON); a different seed must yield a different trace.
//!
//! Uses fig05 (two short token-bucket measurements in one simulation) —
//! cheap enough to run three times even in debug builds.

use skyrise_bench::{capture_runs, experiments as e};

#[test]
fn same_seed_traces_are_byte_identical() {
    let (r1, s1) = capture_runs(true, 0, e::fig05);
    let (r2, s2) = capture_runs(true, 0, e::fig05);

    let json1 = serde_json::to_string(&r1).expect("result json");
    let json2 = serde_json::to_string(&r2).expect("result json");
    assert_eq!(json1, json2, "results diverged between identical runs");

    assert!(s1.events() > 0, "fig05 produced no trace events");
    assert_eq!(s1.chrome_json(), s2.chrome_json(), "Chrome traces diverged");
}

#[test]
fn different_seed_changes_the_trace() {
    let (_, base) = capture_runs(true, 0, e::fig05);
    let (_, shifted) = capture_runs(true, 1, e::fig05);
    assert!(base.events() > 0 && shifted.events() > 0);
    // fig05's token buckets draw nothing from the seed; the process names
    // (`sim00-seed<hex>/<service>`) carry it.
    assert_ne!(
        base.chrome_json(),
        shifted.chrome_json(),
        "seed offset did not perturb the trace"
    );
}
