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
//!   of scheduling. `tests/parallel_determinism.rs` pins the contract:
//!   `--jobs 1` and `--jobs 4` produce byte-identical digests and JSON.

use crate::experiments::{Experiment, ALL};
use crate::{capture_runs, finish, results_dir};
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
    /// the merged Chrome-trace / JSONL strings are returned in the
    /// completed job for the reporter to write at this path.
    pub trace_out: Option<PathBuf>,
    /// When set, a metric registry is installed in every simulation and
    /// the merged snapshot is returned in the completed job (the CLI
    /// merges further across experiments for `--metrics-out`).
    pub metrics: bool,
}

/// Serialized trace artifacts produced on the worker thread. `Tracer`
/// handles are `Rc`-based and cannot leave their thread; strings can.
pub struct TraceArtifacts {
    /// Where the reporter should write the Chrome-trace JSON.
    pub path: PathBuf,
    /// Merged Chrome-trace JSON over the job's simulations.
    pub chrome_json: String,
    /// Flat JSONL event log over the job's simulations.
    pub jsonl: String,
}

/// Everything a finished experiment produced, as plain `Send` data.
pub struct CompletedExperiment {
    /// Name the job was submitted under.
    pub name: &'static str,
    /// The experiment's result tables.
    pub result: ExperimentResult,
    /// Per-simulation sanitizer digests, in execution order. The parallel
    /// determinism contract compares these against a serial run.
    pub digests: Vec<(String, SanitizerReport)>,
    /// Simulations executed.
    pub sims: u64,
    /// Total virtual time simulated (seconds).
    pub virtual_secs: f64,
    /// Trace events recorded (0 when tracing was off).
    pub events: u64,
    /// Serialized traces, when the job asked for them.
    pub trace: Option<TraceArtifacts>,
    /// Merged telemetry snapshot (empty when the job ran without
    /// metrics). Plain data, so it crosses the worker-thread boundary.
    pub metrics: MetricsSnapshot,
    /// Wall-clock seconds the job took on its worker.
    pub wall_secs: f64,
}

/// Default worker count: one per available hardware thread.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run one job to completion on the current thread.
fn run_one(job: ExperimentJob) -> CompletedExperiment {
    // Host-side wall clock for the human-facing summary line only; never
    // fed into a simulation.
    let wall = std::time::Instant::now();
    let (result, summary) = capture_runs(job.trace_out.is_some(), job.metrics, 0, job.run);
    let trace = job.trace_out.map(|path| TraceArtifacts {
        path,
        chrome_json: summary.chrome_json(),
        jsonl: summary.jsonl(),
    });
    CompletedExperiment {
        name: job.name,
        result,
        events: summary.events(),
        digests: summary.digests,
        sims: summary.sims,
        virtual_secs: summary.virtual_secs,
        trace,
        metrics: summary.metrics,
        wall_secs: wall.elapsed().as_secs_f64(),
    }
}

/// Run `jobs` across up to `workers` OS threads and return the completed
/// experiments **in submission order**, regardless of which worker finished
/// when. `workers <= 1` runs everything serially on the calling thread —
/// the baseline the parallel determinism test compares against.
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
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // Steal the next pending experiment; holding the lock only
                // for the pop keeps workers out of each other's way.
                let next = queue.lock().expect("job queue poisoned").pop_front();
                let Some((index, job)) = next else { break };
                let done = run_one(job);
                *slots[index].lock().expect("result slot poisoned") = Some(done);
            });
        }
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

/// Print and persist one completed experiment exactly as the serial
/// harness would: result tables via [`finish`], traces to their requested
/// paths, and the one-line summary. Call in submission order.
pub fn report(done: &CompletedExperiment) {
    finish(&done.result);
    let mut outputs = vec![format!(
        "{}/{}.json",
        results_dir().display(),
        done.result.id
    )];
    if let Some(trace) = &done.trace {
        match write_with_sidecar(&trace.path, &trace.chrome_json, "jsonl", &trace.jsonl) {
            Ok(jsonl_path) => {
                outputs.push(trace.path.display().to_string());
                outputs.push(jsonl_path.display().to_string());
            }
            Err(e) => eprintln!("  (could not write trace to {}: {e})", trace.path.display()),
        }
    }
    let n_metrics = done.metrics.counters.len()
        + done.metrics.gauges.len()
        + done.metrics.histograms.len()
        + done.metrics.timelines.len();
    println!(
        "[{}] virtual {:.1}s across {} sims, {} events traced, {} metrics, wall {:.1}s -> {}",
        done.name,
        done.virtual_secs,
        done.sims,
        done.events,
        n_metrics,
        done.wall_secs,
        outputs.join(", ")
    );
}

/// Write `body` at `path` (creating its directory) and `sidecar` alongside
/// at `<path>.<ext>`: a Chrome trace with its `.jsonl` event log, a
/// telemetry JSONL with its `.prom` exposition. Returns the sidecar path.
pub fn write_with_sidecar(
    path: &Path,
    body: &str,
    ext: &str,
    sidecar: &str,
) -> std::io::Result<PathBuf> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, body)?;
    let mut sidecar_path = path.as_os_str().to_owned();
    sidecar_path.push(format!(".{ext}"));
    let sidecar_path = PathBuf::from(sidecar_path);
    std::fs::write(&sidecar_path, sidecar)?;
    Ok(sidecar_path)
}

// ---------------------------------------------------------------------------
// CLI arguments
// ---------------------------------------------------------------------------

/// What `skyrise-bench` was asked to do: `<name>… | all`, `--trace-out
/// <path>`, `--metrics-out <path>` and `--jobs N` (0 or omitted →
/// [`default_jobs`]).
pub struct SuiteArgs {
    /// The selected experiments, each once, in paper order.
    pub experiments: Vec<Experiment>,
    /// Trace path: used as given for a single experiment, as the base of
    /// per-experiment `stem-<name>.ext` files for several.
    pub trace_out: Option<PathBuf>,
    /// Path for the merged telemetry JSONL (+ `.prom` sidecar).
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
                metrics: self.metrics_out.is_some(),
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
        jobs: default_jobs(),
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
                Ok(0) => default_jobs(),
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

    fn job_a() -> ExperimentResult {
        tiny("harness_a", 3)
    }
    fn job_b() -> ExperimentResult {
        tiny("harness_b", 5)
    }
    fn job_c() -> ExperimentResult {
        tiny("harness_c", 7)
    }

    fn jobs() -> Vec<ExperimentJob> {
        vec![
            ExperimentJob {
                name: "a",
                run: job_a,
                trace_out: None,
                metrics: false,
            },
            ExperimentJob {
                name: "b",
                run: job_b,
                trace_out: None,
                metrics: false,
            },
            ExperimentJob {
                name: "c",
                run: job_c,
                trace_out: None,
                metrics: false,
            },
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
            assert_eq!(s.sims, p.sims);
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
        assert!(two.iter().all(|j| !j.metrics));
        // No flag, no capture.
        let plain = parsed(&["fig05"]).plan();
        assert_eq!(plain[0].trace_out, None);
        assert!(parsed(&["fig05", "--metrics-out=/tmp/m.jsonl"]).plan()[0].metrics);
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
        fn probe() -> ExperimentResult {
            let r = ExperimentResult::new("harness_metrics", "metrics probe");
            crate::in_sim(50, |ctx| {
                Box::pin(async move {
                    ctx.metrics().counter("test.harness.probe").inc();
                    ctx.sleep(skyrise::sim::SimDuration::from_secs(1)).await;
                })
            });
            r
        }
        let done = run_jobs(
            vec![ExperimentJob {
                name: "m",
                run: probe,
                trace_out: None,
                metrics: true,
            }],
            1,
        );
        assert_eq!(done[0].metrics.counters["test.harness.probe"], 1);
        let off = run_jobs(
            vec![ExperimentJob {
                name: "m",
                run: probe,
                trace_out: None,
                metrics: false,
            }],
            1,
        );
        assert!(off[0].metrics.is_empty());
    }
}
