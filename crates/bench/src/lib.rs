//! # skyrise-bench — the experiment harness
//!
//! One function per paper table/figure (see DESIGN.md §4), each returning
//! an [`ExperimentResult`](skyrise::micro::ExperimentResult) and
//! registered in [`experiments::ALL`]. The one binary, `skyrise-bench
//! <name>... | all`, runs the selection through [`harness`], prints each
//! result, persists JSON/CSV and the simulations' digests under `results/`
//! and renders the paper's findings ([`findings::FINDINGS`]) against them
//! into `results/findings.md`.
//!
//! Two profiles:
//! * **fast** (default) — time-scaled variants of the long-running
//!   experiments (S3 partition scaling runs at a compressed split
//!   interval; results are converted back to paper scale). Minutes of
//!   wall time for the whole suite.
//! * **full** (`SKYRISE_FULL=1`) — paper-scale durations.
//!
//! With `--trace-out <path>` every simulation runs with virtual-time
//! tracing enabled, and each experiment's merged trace is written as one
//! Chrome-trace JSON file (open in Perfetto): at `<path>` when one
//! experiment is selected, at `stem-<name>.ext` next to it when several
//! are. Its process names, `sim<NN>-seed<hex>/<service>`, say which
//! simulation and seed each event came from. Traces are byte-identical
//! across runs with identical seeds.

pub mod datasets;
pub mod experiments;
pub mod findings;
pub mod harness;
pub mod host;

use skyrise::sim::{MetricsSnapshot, SanitizerReport, Tracer};
use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::OnceLock;

static RESULTS_DIR: OnceLock<PathBuf> = OnceLock::new();
static FULL_PROFILE: OnceLock<bool> = OnceLock::new();

/// Where results are written (`SKYRISE_RESULTS`, default `results/`).
///
/// Resolved from the environment exactly once per process and cached, so
/// every harness worker thread sees the same value even if the environment
/// is mutated mid-run.
pub fn results_dir() -> PathBuf {
    RESULTS_DIR
        .get_or_init(|| {
            // Harness configuration, not sim state: resolved once, cached.
            host::env_var("SKYRISE_RESULTS").map_or_else(|| PathBuf::from("results"), PathBuf::from)
        })
        .clone()
}

/// Paper-scale mode? (`SKYRISE_FULL=1`.) Resolved once per process, like
/// [`results_dir`] — an experiment suite cannot change profile halfway.
pub fn full_profile() -> bool {
    *FULL_PROFILE.get_or_init(|| {
        // Harness configuration, not sim state: resolved once, cached.
        host::env_var("SKYRISE_FULL").is_some_and(|v| v == "1")
    })
}

// ---------------------------------------------------------------------------
// Trace capture across simulations
// ---------------------------------------------------------------------------

/// Per-thread capture state: `in_sim` consults it to decide whether to
/// install a tracer, and records per-simulation accounting either way.
#[derive(Default)]
struct CaptureState {
    /// Install a tracer in every simulation (set by `--trace-out`).
    trace_all: bool,
    /// Added to every `in_sim` seed (the determinism test's lever for
    /// "different seed → different trace").
    seed_offset: u64,
    /// What the simulations so far produced.
    summary: RunSummary,
}

thread_local! {
    static CAPTURE: RefCell<CaptureState> = RefCell::new(CaptureState::default());
}

/// What an experiment's simulations produced, aside from its result.
#[derive(Default)]
pub struct RunSummary {
    /// One `(label, tracer)` per traced simulation, in execution order.
    pub runs: Vec<(String, Tracer)>,
    /// One `(label, report)` per simulation, in execution order: the rows
    /// a same-seed run must reproduce (`results/<id>.digests.csv`).
    pub digests: Vec<(String, SanitizerReport)>,
    /// Telemetry registry snapshots merged across every simulation of the
    /// run. Canonical and bit-stable: same seeds → byte-identical
    /// `canonical_json()`.
    pub metrics: MetricsSnapshot,
    /// Total virtual time simulated (seconds).
    pub virtual_secs: f64,
}

impl RunSummary {
    /// Total events recorded across all traced simulations.
    pub fn events(&self) -> u64 {
        self.runs.iter().map(|(_, t)| t.len() as u64).sum()
    }

    /// Merged Chrome-trace JSON over every traced simulation.
    pub fn chrome_json(&self) -> String {
        let runs: Vec<(String, &Tracer)> = self
            .runs
            .iter()
            .map(|(label, t)| (label.clone(), t))
            .collect();
        skyrise::sim::chrome_trace_json_multi(&runs)
    }
}

/// Run `f` with capture active: every [`in_sim`] inside it records its
/// virtual time, sanitizer digest and telemetry snapshot, and — when
/// `trace` is set — installs a tracer whose events are collected into the
/// returned [`RunSummary`]. `seed_offset` shifts every simulation seed
/// (0 for normal runs).
pub fn capture_runs<T>(trace: bool, seed_offset: u64, f: impl FnOnce() -> T) -> (T, RunSummary) {
    CAPTURE.with(|c| {
        *c.borrow_mut() = CaptureState {
            trace_all: trace,
            seed_offset,
            ..CaptureState::default()
        }
    });
    let out = f();
    let state = CAPTURE.with(|c| std::mem::take(&mut *c.borrow_mut()));
    (out, state.summary)
}

/// What an experiment hands a simulation: a future over its context.
type SimBody<T> = std::pin::Pin<Box<dyn std::future::Future<Output = T>>>;

/// The one simulation runner: a fresh `Sim` on `seed` (plus the capture's
/// offset) with, in this order, the fault plan if any, a tracer when the
/// capture or `force_trace` asks for one, and the metric registry; its
/// sanitizer comes with it. Afterwards the registry snapshot's digest is
/// folded into the sanitizer — so nondeterministic telemetry fails a
/// digest comparison like any other divergent state — and the simulation
/// is recorded into the active capture, with the timer queue's lane share
/// (`sim.timer.fifo_inserts`) added to its metrics outside the digest.
fn run_sim<T: 'static>(
    seed: u64,
    faults: Option<skyrise::sim::FaultConfig>,
    force_trace: bool,
    f: impl FnOnce(skyrise::sim::SimCtx) -> SimBody<T> + 'static,
) -> T {
    let (trace_all, offset) = CAPTURE.with(|c| {
        let c = c.borrow();
        (c.trace_all, c.seed_offset)
    });
    let seed = seed.wrapping_add(offset);
    let mut sim = skyrise::sim::Sim::new(seed);
    if let Some(config) = faults {
        sim.install_faults(config);
    }
    let tracer = (trace_all || force_trace).then(|| sim.install_tracer());
    let registry = sim.install_metrics();
    let sanitizer = sim.enable_sanitizer();
    let ctx = sim.ctx();
    let h = sim.spawn(f(ctx));
    let end = sim.run();
    let snapshot = registry.snapshot();
    sanitizer.observe("telemetry", snapshot.digest());
    let report = sanitizer.report().expect("every simulation is sanitized");
    CAPTURE.with(|c| {
        let s = &mut c.borrow_mut().summary;
        let label = format!("sim{:02}-seed{:x}", s.digests.len(), seed);
        s.virtual_secs += end.as_secs_f64();
        s.metrics.merge(&snapshot);
        *s.metrics
            .counters
            .entry("sim.timer.fifo_inserts".into())
            .or_insert(0) += sim.timer_fifo_inserts();
        if let Some(t) = tracer {
            s.runs.push((label.clone(), t));
        }
        s.digests.push((label, report));
    });
    h.try_take().expect("experiment completed")
}

/// Run a closure inside a fresh simulation and return its output.
pub fn in_sim<T: 'static>(
    seed: u64,
    f: impl FnOnce(skyrise::sim::SimCtx) -> SimBody<T> + 'static,
) -> T {
    run_sim(seed, None, false, f)
}

/// Like [`in_sim`], but with a fault-injection plan installed: the
/// simulation's compute and storage models draw faults from a plan seeded
/// by the simulation seed (see `skyrise::sim::faults`). Same seed + same
/// config → bit-identical runs, faults included.
pub fn in_sim_faulted<T: 'static>(
    seed: u64,
    faults: skyrise::sim::FaultConfig,
    f: impl FnOnce(skyrise::sim::SimCtx) -> SimBody<T> + 'static,
) -> T {
    run_sim(seed, Some(faults), false, f)
}

/// Like [`in_sim`], but tracing is always on (per-query profiles are
/// built from the trace). The trace is still collected into the active
/// capture, if any.
pub fn in_sim_traced<T: 'static>(
    seed: u64,
    f: impl FnOnce(skyrise::sim::SimCtx) -> SimBody<T> + 'static,
) -> T {
    run_sim(seed, None, true, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_sim_runs_to_completion() {
        let out = in_sim(1, |ctx| {
            Box::pin(async move {
                ctx.sleep(skyrise::sim::SimDuration::from_secs(10)).await;
                ctx.now().as_secs_f64()
            })
        });
        assert_eq!(out, 10.0);
    }

    #[test]
    fn profile_defaults_to_fast() {
        // Unless the caller exported SKYRISE_FULL=1.
        if host::env_var("SKYRISE_FULL").is_none() {
            assert!(!full_profile());
        }
    }

    #[test]
    fn capture_collects_traces_and_virtual_time() {
        let (out, summary) = capture_runs(true, 0, || {
            in_sim(7, |ctx| {
                Box::pin(async move {
                    let tracer = ctx.tracer();
                    let span = tracer.span(&ctx, "svc", tracer.next_lane(), "work");
                    ctx.sleep(skyrise::sim::SimDuration::from_secs(3)).await;
                    span.end();
                    1u32
                })
            })
        });
        assert_eq!(out, 1);
        assert_eq!(summary.digests.len(), 1);
        assert_eq!(summary.virtual_secs, 3.0);
        assert_eq!(summary.events(), 1);
        let chrome = summary.chrome_json();
        assert!(chrome.contains(r#""name":"work""#), "{chrome}");
        // One process_name record and one span.
        assert_eq!(chrome.lines().count(), 4, "{chrome}");
    }

    #[test]
    fn capture_disabled_still_counts_sims() {
        let ((), summary) = capture_runs(false, 0, || {
            in_sim(8, |ctx| {
                Box::pin(async move {
                    ctx.sleep(skyrise::sim::SimDuration::from_secs(1)).await;
                })
            })
        });
        assert_eq!(summary.digests.len(), 1);
        assert_eq!(summary.events(), 0);
        assert!(summary.runs.is_empty());
    }

    #[test]
    fn seed_offset_shifts_sim_seeds() {
        fn seed_of(offset: u64) -> u64 {
            let ((), summary) = capture_runs(true, offset, || {
                in_sim(100, |ctx| {
                    Box::pin(async move {
                        let tracer = ctx.tracer();
                        tracer.instant(&ctx, "svc", 0, "mark");
                    })
                })
            });
            summary.runs[0].1.run_id().expect("traced")
        }
        assert_eq!(seed_of(0), 100);
        assert_eq!(seed_of(5), 105);
    }

    #[test]
    fn sanitizer_digests_recorded_and_reproducible() {
        fn one(seed: u64) -> RunSummary {
            capture_runs(false, 0, || {
                in_sim(seed, |ctx| {
                    Box::pin(async move {
                        ctx.sleep(skyrise::sim::SimDuration::from_secs(2)).await;
                    })
                })
            })
            .1
        }
        let a = one(11);
        let b = one(11);
        assert_eq!(a.digests.len(), 1);
        assert!(a.digests[0].1.events > 0);
        assert_eq!(a.digests, b.digests, "same seed, same digest trail");
        assert_eq!(a.digests[0].1.first_divergence(&b.digests[0].1), None);
    }

    #[test]
    fn timer_lane_share_is_in_the_capture_metrics() {
        let ((), summary) = capture_runs(false, 0, || {
            in_sim(5, |ctx| {
                Box::pin(async move {
                    for _ in 0..3 {
                        ctx.sleep(skyrise::sim::SimDuration::from_millis(10)).await;
                    }
                })
            })
        });
        assert_eq!(summary.metrics.counters["sim.timer.inserts"], 3);
        // The span's first timer finds its lanes unclaimed; the next two
        // take one.
        assert_eq!(summary.metrics.counters["sim.timer.fifo_inserts"], 2);
    }

    #[test]
    fn metrics_capture_merges_across_sims() {
        let ((), summary) = capture_runs(false, 0, || {
            for seed in [21, 22] {
                in_sim(seed, |ctx| {
                    Box::pin(async move {
                        let c = ctx.metrics().counter("test.capture.runs");
                        c.inc();
                        ctx.sleep(skyrise::sim::SimDuration::from_secs(1)).await;
                    })
                });
            }
        });
        assert_eq!(summary.digests.len(), 2);
        assert_eq!(summary.metrics.counters["test.capture.runs"], 2);
        // Executor self-profiling rides along once a registry is live.
        assert!(summary.metrics.counters["sim.executor.polls"] > 0);
    }

    #[test]
    fn telemetry_digest_feeds_the_sanitizer() {
        fn digest_of(extra: u64) -> u64 {
            let ((), summary) = capture_runs(false, 0, || {
                in_sim(31, move |ctx| {
                    Box::pin(async move {
                        ctx.metrics().counter("test.sanitizer.value").add(extra);
                        ctx.sleep(skyrise::sim::SimDuration::from_secs(1)).await;
                    })
                })
            });
            summary.digests[0].1.digest
        }
        // Same telemetry, same digest; different telemetry, different
        // digest.
        assert_eq!(digest_of(1), digest_of(1));
        assert_ne!(digest_of(1), digest_of(2));
    }
}
