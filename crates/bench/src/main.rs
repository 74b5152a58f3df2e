//! `skyrise-bench <name>... | all [--jobs N] [--trace-out P] [--metrics-out
//! P]` — regenerate the named tables and figures of the
//! paper, or all of them. Run with `--release`; set `SKYRISE_FULL=1` for
//! paper-scale durations. Results land under `results/`, each experiment's
//! simulation digests beside them in `<id>.digests.csv`; each experiment
//! prints a summary line: virtual time simulated, wall-clock elapsed,
//! events traced, and output paths. Afterwards the paper's findings are
//! rendered against the results directory into `findings.md`, and each
//! failing row is printed by name. An unknown or missing name lists the
//! registry and exits 2; an output that cannot be written (results,
//! digests, trace, findings, metrics) is printed, and once everything else
//! is written the run exits 1.
//!
//! Experiments run in paper order, in parallel across worker threads
//! (`--jobs N`, default one per hardware thread; `--jobs 1` forces the
//! serial baseline). Each experiment's simulations stay on a single
//! thread, so parallelism never touches simulation determinism — reports
//! and result files are byte-identical at any job count.
//!
//! With `--trace-out <path>`, a single experiment's Chrome-trace JSON is
//! written at `<path>`; several are written next to it, suffixed with the
//! experiment name (`all --trace-out /tmp/all.json` yields
//! `/tmp/all-fig05.json`, ...).
//!
//! Every simulation runs with a telemetry registry installed, its digest
//! folded into the simulation's. With `--metrics-out <path>`, the snapshot
//! merged over the selection is written as JSONL at `<path>`. Each flag
//! writes that one file.

use skyrise_bench::findings;
use skyrise_bench::harness::{parse_suite_args, report, run_jobs, write_output};
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
    let dir = skyrise_bench::results_dir();
    let mut suite_metrics = skyrise::sim::MetricsSnapshot::default();
    let mut written = true;
    for experiment in &done {
        written &= report(experiment, &dir);
        suite_metrics.merge(&experiment.metrics);
    }
    match findings::write_report(&dir) {
        Ok(failures) => {
            eprintln!("findings -> {}", dir.join("findings.md").display());
            for failure in failures {
                eprintln!("finding fails: {failure}");
            }
        }
        Err(e) => {
            eprintln!("(could not write findings to {}: {e})", dir.display());
            written = false;
        }
    }
    if let Some(path) = &args.metrics_out {
        match write_output(path, &suite_metrics.to_jsonl()) {
            Ok(()) => eprintln!("suite metrics -> {}", path.display()),
            Err(e) => {
                eprintln!("(could not write metrics to {}: {e})", path.display());
                written = false;
            }
        }
    }
    eprintln!(
        "total wall time: {:.1} ({} workers)",
        t0.elapsed(),
        args.jobs
    );
    if !written {
        eprintln!("some outputs could not be written");
        std::process::exit(1);
    }
}
