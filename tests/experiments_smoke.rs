//! Smoke tests over the experiment harness: the cheap experiments run end
//! to end and produce the paper's qualitative findings. (The expensive
//! figures are covered by unit tests inside `skyrise-bench` and by
//! `skyrise-bench all`.)

use skyrise_bench::experiments as e;

#[test]
fn static_tables_run() {
    let t1 = e::table01();
    assert_eq!(t1.id, "table01");
    let t2 = e::table02();
    assert!(t2.scalars.contains_key("s3_warm_100k_iops_usd_per_hour"));
    let t3 = e::table03();
    assert_eq!(t3.id, "table03");
}

#[test]
fn breakeven_tables_match_paper_shape() {
    let t7 = e::table07();
    // RAM/SSD (4 KiB) is seconds; RAM/S3 Standard (4 KiB) is days.
    let ram_ssd = t7.scalars["RAM_SSD_4096b_secs"];
    let ram_s3 = t7.scalars["RAM_S3_Standard_4096b_secs"];
    assert!(ram_ssd < 120.0);
    assert!(ram_s3 > 86_400.0);

    let t8 = e::table08();
    // c6gn reserved breaks even at larger accesses than on-demand.
    let od = t8.scalars["s3std_c6gn.xlarge_on-demand_mb"];
    let rsv = t8.scalars["s3std_c6gn.xlarge_reserved_mb"];
    assert!(rsv > 2.0 * od, "{od} vs {rsv}");
}

#[test]
fn table04_extrapolates_dataset_sizes() {
    let t4 = e::table04();
    assert!(t4.scalars["h_lineitem_sf1000_gib"] > t4.scalars["h_orders_sf1000_gib"]);
    assert!(t4.scalars["bb_item_sf1000_gib"] < 1.0);
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
