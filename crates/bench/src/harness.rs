//! Parallel experiment runner.
//!
//! The suite is embarrassingly parallel *between* experiments: every
//! simulation is a self-contained single-threaded `Rc`/`RefCell` world,
//! so nothing below the harness needs to be `Send`. The harness exploits
//! exactly that boundary — worker OS threads steal whole experiments from
//! a shared queue, each experiment's simulations run on the thread that
//! stole it (trace/digest capture is thread-local), and the only values
//! crossing threads are plain-data [`CompletedExperiment`]s.
//!
//! Determinism is preserved by construction:
//! * per-experiment seeds are fixed inside the experiment functions, so a
//!   simulation's digest cannot depend on which worker ran it;
//! * traces are serialized to strings *on the worker* (the `Tracer`
//!   handle is `Rc`-based and must not leave its thread);
//! * results are collected into submission-order slots, so reporting
//!   order — and therefore every byte of suite output — is independent
//!   of scheduling.
//!
//! [`report`] writes each experiment's simulation digests beside its
//! results (`results/<id>.digests.csv`): a rerun at any `--jobs` that
//! leaves the committed `results/` unchanged kept every simulated bit. It
//! says whether every output was written, so a run that could not save
//! one fails instead of leaving stale files to compare.

use crate::capture_runs;
use crate::experiments::{Experiment, ALL};
use crate::host::{self, HostSecs, Stopwatch};
use skyrise::micro::ExperimentResult;
use skyrise::sim::{MetricsSnapshot, SanitizerReport};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// An experiment as submitted to the harness. The run function is a plain
/// `fn` pointer: experiments are top-level functions, and fn pointers are
/// `Send` — the closure-free design is what lets jobs cross threads while
/// everything inside a job stays single-threaded.
pub struct ExperimentJob {
    /// Experiment name (suite table key, also used in trace file names).
    pub name: &'static str,
    /// The experiment body; runs entirely on one worker thread.
    pub run: fn() -> ExperimentResult,
    /// When set, tracing is enabled for every simulation in the job and
    /// the merged Chrome-trace JSON is returned in the completed job for
    /// the reporter to write at this path.
    pub trace_out: Option<PathBuf>,
}

/// A serialized trace produced on the worker thread. `Tracer` handles are
/// `Rc`-based and cannot leave their thread; strings can.
pub struct TraceArtifacts {
    /// Where the reporter should write the Chrome-trace JSON.
    pub path: PathBuf,
    /// Merged Chrome-trace JSON over the job's simulations.
    pub chrome_json: String,
}

/// Everything a finished experiment produced, as plain `Send` data.
pub struct CompletedExperiment {
    /// Name the job was submitted under.
    pub name: &'static str,
    /// The experiment's result tables.
    pub result: ExperimentResult,
    /// Per-simulation sanitizer digests, in execution order: the rows of
    /// the experiment's digests file ([`digests_csv`]).
    pub digests: Vec<(String, SanitizerReport)>,
    /// Total virtual time simulated (seconds).
    pub virtual_secs: f64,
    /// Trace events recorded (0 when tracing was off).
    pub events: u64,
    /// The serialized trace, when the job asked for one.
    pub trace: Option<TraceArtifacts>,
    /// Telemetry snapshot merged over the job's simulations. Plain data,
    /// so it crosses the worker-thread boundary.
    pub metrics: MetricsSnapshot,
    /// Wall-clock time the job took on its worker.
    pub wall: HostSecs,
}

/// Run one job to completion on the current thread.
fn run_one(job: ExperimentJob) -> CompletedExperiment {
    // Host-side wall clock for the human-facing summary line only.
    let wall = Stopwatch::start();
    let (result, summary) = capture_runs(job.trace_out.is_some(), 0, job.run);
    let trace = job.trace_out.map(|path| TraceArtifacts {
        path,
        chrome_json: summary.chrome_json(),
    });
    CompletedExperiment {
        name: job.name,
        result,
        events: summary.events(),
        digests: summary.digests,
        virtual_secs: summary.virtual_secs,
        trace,
        metrics: summary.metrics,
        wall: wall.elapsed(),
    }
}

/// Run `jobs` across up to `workers` OS threads and return the completed
/// experiments **in submission order**, regardless of which worker finished
/// when. `workers <= 1` runs everything serially on the calling thread.
///
/// A panic inside any experiment propagates out of this call once the
/// remaining workers drain (std scoped-thread semantics).
pub fn run_jobs(jobs: Vec<ExperimentJob>, workers: usize) -> Vec<CompletedExperiment> {
    let workers = workers.clamp(1, jobs.len().max(1));
    if workers <= 1 {
        return jobs.into_iter().map(run_one).collect();
    }
    let queue: Mutex<VecDeque<(usize, ExperimentJob)>> =
        Mutex::new(jobs.into_iter().enumerate().collect());
    let slots: Vec<Mutex<Option<CompletedExperiment>>> = {
        let n = queue.lock().expect("job queue poisoned").len();
        (0..n).map(|_| Mutex::new(None)).collect()
    };
    host::on_threads(workers, || loop {
        // Steal the next pending experiment; holding the lock only for the
        // pop keeps workers out of each other's way.
        let next = queue.lock().expect("job queue poisoned").pop_front();
        let Some((index, job)) = next else { break };
        let done = run_one(job);
        *slots[index].lock().expect("result slot poisoned") = Some(done);
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker exited without completing its job")
        })
        .collect()
}

/// The digests file of an experiment: a `sim,digest,events` header, then
/// one row per simulation in execution order, its label, its sanitizer
/// digest as 16 hex digits and its event count.
pub fn digests_csv(digests: &[(String, SanitizerReport)]) -> String {
    use std::fmt::Write;
    let mut csv = String::from("sim,digest,events\n");
    for (label, report) in digests {
        let _ = writeln!(csv, "{label},{:016x},{}", report.digest, report.events);
    }
    csv
}

/// Print and persist one completed experiment exactly as the serial
/// harness would: its result tables, their JSON/CSV under `dir` with the
/// digests file beside them, its trace at the requested path, and the
/// one-line summary. Call in submission order. Every output is attempted;
/// `false` means one or more could not be written (each is printed).
pub fn report(done: &CompletedExperiment, dir: &Path) -> bool {
    let result = &done.result;
    println!("=== {}: {} ===", result.id, result.title);
    for (k, v) in &result.params {
        println!("  param {k} = {v}");
    }
    for (k, v) in &result.scalars {
        println!("  {k} = {v:.6}");
    }
    let [json, digests] =
        ["json", "digests.csv"].map(|ext| format!("{}/{}.{ext}", dir.display(), result.id));
    let saved = result.save(dir);
    let mut written = true;
    match saved.and_then(|()| std::fs::write(&digests, digests_csv(&done.digests))) {
        Ok(()) => println!("  saved to {json}\n"),
        Err(e) => {
            eprintln!("  (could not save results: {e})\n");
            written = false;
        }
    }
    let mut outputs = vec![json, digests];
    if let Some(trace) = &done.trace {
        match write_output(&trace.path, &trace.chrome_json) {
            Ok(()) => outputs.push(trace.path.display().to_string()),
            Err(e) => {
                eprintln!("  (could not write trace to {}: {e})", trace.path.display());
                written = false;
            }
        }
    }
    let n_metrics = done.metrics.counters.len()
        + done.metrics.gauges.len()
        + done.metrics.histograms.len()
        + done.metrics.timelines.len();
    println!(
        "[{}] virtual {:.1}s across {} sims, {} events traced, {} metrics, wall {:.1} -> {}",
        done.name,
        done.virtual_secs,
        done.digests.len(),
        done.events,
        n_metrics,
        done.wall,
        outputs.join(", ")
    );
    written
}

/// Write `body` at `path`, creating its directory: a Chrome trace, the
/// suite's telemetry JSONL.
pub fn write_output(path: &Path, body: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, body)
}

// ---------------------------------------------------------------------------
// CLI arguments
// ---------------------------------------------------------------------------

/// What `skyrise-bench` was asked to do: `<name>… | all`, `--trace-out
/// <path>`, `--metrics-out <path>` and `--jobs N` (0 or omitted →
/// one per hardware thread, [`host::available_parallelism`]).
pub struct SuiteArgs {
    /// The selected experiments, each once, in paper order.
    pub experiments: Vec<Experiment>,
    /// Trace path: used as given for a single experiment, as the base of
    /// per-experiment `stem-<name>.ext` files for several.
    pub trace_out: Option<PathBuf>,
    /// Path for the merged telemetry JSONL.
    pub metrics_out: Option<PathBuf>,
    /// Worker thread count.
    pub jobs: usize,
}

impl SuiteArgs {
    /// The jobs this invocation runs: the selection, with its trace paths.
    pub fn plan(&self) -> Vec<ExperimentJob> {
        let single = self.experiments.len() == 1;
        self.experiments
            .iter()
            .map(|&(name, run)| ExperimentJob {
                name,
                run,
                trace_out: self.trace_out.as_ref().map(|base| {
                    if single {
                        base.clone()
                    } else {
                        trace_path_for(base, name)
                    }
                }),
            })
            .collect()
    }
}

/// Derive a per-experiment trace path: `dir/stem-name.ext`.
fn trace_path_for(base: &Path, name: &str) -> PathBuf {
    let stem = base
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "trace".into());
    let ext = base
        .extension()
        .map(|s| format!(".{}", s.to_string_lossy()))
        .unwrap_or_default();
    base.with_file_name(format!("{stem}-{name}{ext}"))
}

/// Parse the command line (flags space- or `=`-separated). `Err` carries
/// what to print before exiting with status 2: the complaint, the usage
/// line, and the registry's names.
pub fn parse_suite_args<I: IntoIterator<Item = String>>(args: I) -> Result<SuiteArgs, String> {
    parse(args.into_iter()).map_err(|complaint| {
        let names: Vec<&str> = ALL.iter().map(|&(name, _)| name).collect();
        format!(
            "{complaint}\nusage: skyrise-bench <name>... | all [--jobs N] [--trace-out <path>] \
             [--metrics-out <path>]\nexperiments: {}",
            names.join(" ")
        )
    })
}

fn parse(mut iter: impl Iterator<Item = String>) -> Result<SuiteArgs, String> {
    let mut out = SuiteArgs {
        experiments: Vec::new(),
        trace_out: None,
        metrics_out: None,
        jobs: host::available_parallelism(),
    };
    let mut names: Vec<String> = Vec::new();
    while let Some(arg) = iter.next() {
        let mut take = |flag: &str| -> Result<Option<String>, String> {
            if arg == flag {
                iter.next()
                    .map(Some)
                    .ok_or_else(|| format!("{flag} requires an argument"))
            } else {
                Ok(arg
                    .strip_prefix(flag)
                    .and_then(|rest| rest.strip_prefix('='))
                    .map(str::to_string))
            }
        };
        if let Some(path) = take("--trace-out")? {
            out.trace_out = Some(PathBuf::from(path));
        } else if let Some(path) = take("--metrics-out")? {
            out.metrics_out = Some(PathBuf::from(path));
        } else if let Some(v) = take("--jobs")? {
            out.jobs = match v.parse::<usize>() {
                Ok(0) => host::available_parallelism(),
                Ok(n) => n,
                Err(_) => return Err("--jobs requires a non-negative integer".into()),
            };
        } else if arg.starts_with('-') {
            return Err(format!("unknown argument `{arg}`"));
        } else if arg == "all" || ALL.iter().any(|&(name, _)| name == arg) {
            names.push(arg);
        } else {
            return Err(format!("unknown experiment `{arg}`"));
        }
    }
    if names.is_empty() {
        return Err("no experiment named".into());
    }
    let all = names.iter().any(|n| n == "all");
    out.experiments = ALL
        .iter()
        .filter(|&&(name, _)| all || names.iter().any(|n| n == name))
        .copied()
        .collect();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyrise::micro::ExperimentResult;

    fn tiny(id: &str, scale: u64) -> ExperimentResult {
        let mut r = ExperimentResult::new(id, "tiny harness probe");
        let secs = crate::in_sim(42, move |ctx| {
            Box::pin(async move {
                ctx.sleep(skyrise::sim::SimDuration::from_secs(scale)).await;
                ctx.now().as_secs_f64()
            })
        });
        r.scalars.insert("virtual_secs".into(), secs);
        r
    }

    fn job(name: &'static str, run: fn() -> ExperimentResult) -> ExperimentJob {
        ExperimentJob {
            name,
            run,
            trace_out: None,
        }
    }

    fn jobs() -> Vec<ExperimentJob> {
        vec![
            job("a", || tiny("harness_a", 3)),
            job("b", || tiny("harness_b", 5)),
            job("c", || tiny("harness_c", 7)),
        ]
    }

    #[test]
    fn results_come_back_in_submission_order() {
        for workers in [1, 2, 8] {
            let done = run_jobs(jobs(), workers);
            let names: Vec<_> = done.iter().map(|d| d.name).collect();
            assert_eq!(names, ["a", "b", "c"], "workers={workers}");
            assert_eq!(done[1].result.scalars["virtual_secs"], 5.0);
        }
    }

    #[test]
    fn parallel_digests_match_serial() {
        let serial = run_jobs(jobs(), 1);
        let parallel = run_jobs(jobs(), 3);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.digests, p.digests, "digest diverged for {}", s.name);
        }
    }

    fn parsed(args: &[&str]) -> SuiteArgs {
        parse_suite_args(args.iter().map(|a| a.to_string())).expect("arguments parse")
    }

    fn names(args: &SuiteArgs) -> Vec<&'static str> {
        args.experiments.iter().map(|&(name, _)| name).collect()
    }

    #[test]
    fn suite_args_parsing() {
        let args = parsed(&["fig05", "--jobs", "4"]);
        assert_eq!(args.jobs, 4);
        assert_eq!(args.trace_out, None);
        assert_eq!(args.metrics_out, None);
        let args = parsed(&["all", "--jobs=2", "--trace-out=/tmp/t.json"]);
        assert_eq!(args.jobs, 2);
        assert_eq!(args.trace_out, Some(PathBuf::from("/tmp/t.json")));
        // 0 falls back to the hardware default.
        let args = parsed(&["all", "--jobs=0"]);
        assert!(args.jobs >= 1);
        let args = parsed(&[
            "--trace-out",
            "/tmp/t.json",
            "--metrics-out=/tmp/m.jsonl",
            "all",
        ]);
        assert_eq!(args.trace_out, Some(PathBuf::from("/tmp/t.json")));
        assert_eq!(args.metrics_out, Some(PathBuf::from("/tmp/m.jsonl")));
    }

    #[test]
    fn names_select_from_the_registry_in_paper_order() {
        let registry: Vec<&str> = ALL.iter().map(|&(name, _)| name).collect();
        assert_eq!(names(&parsed(&["all"])), registry);
        for &name in &registry {
            assert_eq!(names(&parsed(&[name])), [name]);
        }
        // Paper order, not argument order; a repeated name runs once, and
        // `all` absorbs whatever else was named.
        assert_eq!(
            names(&parsed(&["fig05", "table01", "fig05"])),
            ["table01", "fig05"]
        );
        assert_eq!(names(&parsed(&["fig05", "all"])), registry);
    }

    #[test]
    fn trace_path_kept_for_one_experiment_suffixed_for_several() {
        let one = parsed(&["fig05", "--trace-out=/tmp/t.json"]).plan();
        assert_eq!(one[0].trace_out, Some(PathBuf::from("/tmp/t.json")));
        let two = parsed(&["fig05", "fig14", "--trace-out=/tmp/t.json"]).plan();
        let paths: Vec<_> = two.iter().map(|j| j.trace_out.clone().unwrap()).collect();
        assert_eq!(
            paths,
            [
                PathBuf::from("/tmp/t-fig05.json"),
                PathBuf::from("/tmp/t-fig14.json")
            ]
        );
        // No flag, no capture.
        let plain = parsed(&["fig05"]).plan();
        assert_eq!(plain[0].trace_out, None);
    }

    #[test]
    fn bad_command_lines_list_the_registry() {
        for args in [
            &[][..],
            &["--jobs", "2"],
            &["fig99"],
            &["fig05", "--frobnicate"],
            &["fig05", "--jobs"],
            &["fig05", "--jobs=many"],
        ] {
            let err = parse_suite_args(args.iter().map(|a| a.to_string()))
                .err()
                .unwrap_or_else(|| panic!("{args:?} should be rejected"));
            assert!(err.contains("usage: skyrise-bench"), "{err}");
            for &(name, _) in ALL {
                assert!(err.contains(name), "{name} missing from: {err}");
            }
        }
    }

    #[test]
    fn jobs_carry_metrics_snapshots() {
        let probe = job("m", || {
            crate::in_sim(50, |ctx| {
                Box::pin(async move {
                    ctx.metrics().counter("test.harness.probe").inc();
                    ctx.sleep(skyrise::sim::SimDuration::from_secs(1)).await;
                })
            });
            ExperimentResult::new("harness_metrics", "metrics probe")
        });
        let done = run_jobs(vec![probe], 1);
        assert_eq!(done[0].metrics.counters["test.harness.probe"], 1);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "a host test writing real files needs the host's temp dir; no simulation reads it"
    )]
    fn report_fails_when_an_output_cannot_be_written() {
        let dir = std::env::temp_dir().join("skyrise-bench-report");
        // A regular file cannot hold a directory entry.
        let under_a_file = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml/trace.json");
        let traced = ExperimentJob {
            trace_out: Some(under_a_file),
            ..job("traced", || tiny("harness_report", 1))
        };
        let done = run_jobs(vec![job("plain", || tiny("harness_report", 1)), traced], 1);
        assert!(report(&done[0], &dir), "results and digests are written");
        assert!(!report(&done[1], &dir), "the trace cannot be written");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn digests_file_has_one_row_per_simulation_in_order() {
        let two_sims = job("two", || {
            tiny("harness_two", 1);
            tiny("harness_two", 2)
        });
        let no_sim = job("none", || ExperimentResult::new("harness_none", "no sim"));
        let done = run_jobs(vec![two_sims, no_sim], 1);
        let [one, two] = [&done[0].digests[0].1, &done[0].digests[1].1];
        assert_ne!(one.digest, two.digest, "a 1 s and a 2 s sleep");
        assert_eq!(
            digests_csv(&done[0].digests),
            format!(
                "sim,digest,events\nsim00-seed2a,{:016x},{}\nsim01-seed2a,{:016x},{}\n",
                one.digest, one.events, two.digest, two.events
            )
        );
        assert_eq!(digests_csv(&done[1].digests), "sim,digest,events\n");
    }
}
