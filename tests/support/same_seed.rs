//! The same-seed contract of the experiment harness, shared by
//! `tests/parallel_determinism.rs` and `tests/determinism_sweep.rs`: a
//! fresh run reproduces the committed `results/<id>.digests.csv`.

use skyrise_bench::harness::{digests_csv, parse_suite_args, run_jobs};

/// The committed `results/` of this checkout.
pub const RESULTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");

/// Run the named experiments through the harness on `workers` workers and
/// assert that each reproduces its committed digests file row for row. A
/// mismatch names the experiment and both versions of its first differing
/// row: the simulation, its digest and its event count.
pub fn assert_matches_committed(names: &[&str], workers: usize) {
    let args = parse_suite_args(names.iter().map(|n| n.to_string())).expect("registered names");
    for done in run_jobs(args.plan(), workers) {
        let path = format!("{RESULTS}/{}.digests.csv", done.name);
        let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let fresh = digests_csv(&done.digests);
        let (c, f): (Vec<_>, Vec<_>) = (committed.lines().collect(), fresh.lines().collect());
        if let Some(i) = (0..c.len().max(f.len())).find(|&i| c.get(i) != f.get(i)) {
            panic!(
                "{}: on {workers} worker(s), {path} has {:?} where a fresh run has {:?}",
                done.name,
                c.get(i),
                f.get(i)
            );
        }
    }
}
