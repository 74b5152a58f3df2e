//! `skyrise-bench <name>... | all [--jobs N] [--trace-out P] [--metrics-out
//! P]` — regenerate the named tables and figures of the
//! paper, or all of them. Run with `--release`; set `SKYRISE_FULL=1` for
//! paper-scale durations. Results land under `results/`; each experiment
//! prints a summary line: virtual time simulated, wall-clock elapsed,
//! events traced, and output paths. An unknown or missing name lists the
//! registry and exits 2.
//!
//! Experiments run in paper order, in parallel across worker threads
//! (`--jobs N`, default one per hardware thread; `--jobs 1` forces the
//! serial baseline). Each experiment's simulations stay on a single
//! thread, so parallelism never touches simulation determinism — reports
//! and result files are byte-identical at any job count.
//!
//! With `--trace-out <path>`, a single experiment's Chrome-trace is
//! written at `<path>`; several are written next to it, suffixed with the
//! experiment name (`all --trace-out /tmp/all.json` yields
//! `/tmp/all-fig05.json`, ...).
//!
//! With `--metrics-out <path>`, every simulation runs with a telemetry
//! registry installed and the snapshot merged over the selection is
//! written as JSONL at `<path>` plus Prometheus text exposition at
//! `<path>.prom`.

use skyrise_bench::harness::{parse_suite_args, report, run_jobs, write_with_sidecar};
use skyrise_bench::host::{self, Stopwatch};

fn main() {
    let args = parse_suite_args(host::args()).unwrap_or_else(|usage| {
        eprintln!("{usage}");
        std::process::exit(2);
    });
    // Suite wall time for the closing summary.
    let t0 = Stopwatch::start();
    let jobs = args.plan();
    eprintln!(
        "running {} experiments on {} worker(s)",
        jobs.len(),
        args.jobs
    );
    let done = run_jobs(jobs, args.jobs);
    // Merge in submission (paper) order, so the merged snapshot is
    // byte-identical at any job count.
    let mut suite_metrics = skyrise::sim::MetricsSnapshot::default();
    for experiment in &done {
        report(experiment);
        suite_metrics.merge(&experiment.metrics);
    }
    if let Some(path) = &args.metrics_out {
        match write_with_sidecar(
            path,
            &suite_metrics.to_jsonl(),
            "prom",
            &suite_metrics.to_prometheus(),
        ) {
            Ok(prom_path) => eprintln!(
                "suite metrics -> {}, {}",
                path.display(),
                prom_path.display()
            ),
            Err(e) => eprintln!("(could not write metrics to {}: {e})", path.display()),
        }
    }
    eprintln!(
        "total wall time: {:.1} ({} workers)",
        t0.elapsed(),
        args.jobs
    );
}
