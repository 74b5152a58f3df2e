//! Smoke tests over the experiment harness: the cheap experiments run end
//! to end, persist their results and, freshly run, hold their rows of
//! `skyrise_bench::findings` (which tier-1 also checks on the committed
//! `results/`).

use skyrise_bench::experiments as e;
use skyrise_bench::findings::fresh_failures;

fn assert_findings_hold(result: &skyrise::micro::ExperimentResult) {
    let fails = fresh_failures(result);
    assert!(fails.is_empty(), "{}", fails.join("\n"));
}

#[test]
fn static_tables_run() {
    let t1 = e::table01();
    assert_eq!(t1.id, "table01");
    let t2 = e::table02();
    assert!(t2.scalars.contains_key("s3_warm_100k_iops_usd_per_hour"));
    let t3 = e::table03();
    assert_eq!(t3.id, "table03");
}

/// RAM/SSD (4 KiB) breaks even in seconds, RAM/S3 Standard in days, and
/// c6gn reserved breaks even at larger accesses than on-demand.
#[test]
fn breakeven_tables_match_paper_shape() {
    assert_findings_hold(&e::table07());
    assert_findings_hold(&e::table08());
}

/// Lineitem outgrows orders at SF 1000; item stays under 1 GiB.
#[test]
fn table04_extrapolates_dataset_sizes() {
    assert_findings_hold(&e::table04());
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "a host test writing real files needs the host's temp dir; no simulation reads it"
)]
fn fig05_smoke() {
    let r = e::fig05();
    assert_eq!(r.series.len(), 2);
    assert!(r.scalars["inbound_burst_gib_s"] > 1.0);
    // Results persist to a temp dir without error.
    let dir = std::env::temp_dir().join("skyrise-smoke");
    let _ = std::fs::remove_dir_all(&dir);
    r.save(&dir).expect("results save");
    assert!(dir.join("fig05.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
