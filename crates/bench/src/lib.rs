//! # skyrise-bench — the experiment harness
//!
//! One function per paper table/figure (see DESIGN.md §4), each returning
//! an [`ExperimentResult`] and registered in [`experiments::ALL`]. The one
//! binary, `skyrise-bench <name>... | all`, runs the selection through
//! [`harness`], prints each result and persists JSON/CSV under `results/`.
//!
//! Two profiles:
//! * **fast** (default) — time-scaled variants of the long-running
//!   experiments (S3 partition scaling runs at a compressed split
//!   interval; results are converted back to paper scale). Minutes of
//!   wall time for the whole suite.
//! * **full** (`SKYRISE_FULL=1`) — paper-scale durations.
//!
//! With `--trace-out <path>` every simulation runs with virtual-time
//! tracing enabled, and each experiment's merged trace is written as
//! Chrome-trace JSON (open in Perfetto) plus a flat JSONL log alongside at
//! `.jsonl`: at `<path>` when one experiment is selected, at
//! `stem-<name>.ext` next to it when several are. Traces are byte-identical
//! across runs with identical seeds.

pub mod datasets;
pub mod experiments;
pub mod harness;
pub mod host;

use skyrise::micro::ExperimentResult;
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

/// Print and persist an experiment result.
pub fn finish(result: &ExperimentResult) {
    println!("=== {}: {} ===", result.id, result.title);
    for (k, v) in &result.params {
        println!("  param {k} = {v}");
    }
    for (k, v) in &result.scalars {
        println!("  {k} = {v:.6}");
    }
    if let Some(cost) = &result.cost {
        println!("  simulated experiment cost: ${:.4}", cost.total_usd());
    }
    let dir = results_dir();
    match result.save(&dir) {
        Ok(()) => println!("  saved to {}/{}.json", dir.display(), result.id),
        Err(e) => eprintln!("  (could not save results: {e})"),
    }
    println!();
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
    /// Install a metric registry in every simulation (set by
    /// `--metrics-out`); snapshots merge into one per experiment.
    metrics_all: bool,
    /// Added to every `in_sim` seed (the determinism test's lever for
    /// "different seed → different trace").
    seed_offset: u64,
    /// What the simulations so far produced.
    summary: RunSummary,
}

thread_local! {
    static CAPTURE: RefCell<CaptureState> = RefCell::new(CaptureState::default());
}

/// What a traced experiment run produced, aside from its result.
#[derive(Default)]
pub struct RunSummary {
    /// One `(label, tracer)` per traced simulation, in execution order.
    pub runs: Vec<(String, Tracer)>,
    /// One `(label, report)` per sanitized simulation, in execution order.
    /// Two same-seed executions of the same experiment must produce
    /// identical digest sequences; see `tests/determinism_sweep.rs`.
    pub digests: Vec<(String, SanitizerReport)>,
    /// Telemetry registry snapshots merged across every simulation of the
    /// run (empty unless metrics capture was on). Canonical and bit-stable:
    /// same seeds → byte-identical `canonical_json()`.
    pub metrics: MetricsSnapshot,
    /// Simulations executed.
    pub sims: u64,
    /// Total virtual time simulated (seconds).
    pub virtual_secs: f64,
}

impl RunSummary {
    /// Total events recorded across all traced simulations.
    pub fn events(&self) -> u64 {
        self.runs.iter().map(|(_, t)| t.len() as u64).sum()
    }

    fn run_refs(&self) -> Vec<(String, &Tracer)> {
        self.runs
            .iter()
            .map(|(label, t)| (label.clone(), t))
            .collect()
    }

    /// Merged Chrome-trace JSON over every traced simulation.
    pub fn chrome_json(&self) -> String {
        skyrise::sim::chrome_trace_json_multi(&self.run_refs())
    }

    /// Merged JSONL event log over every traced simulation.
    pub fn jsonl(&self) -> String {
        skyrise::sim::jsonl_multi(&self.run_refs())
    }
}

/// Run `f` with capture active: every [`in_sim`] inside it records its
/// virtual time, and — when `trace` (resp. `metrics`) is set — installs a
/// tracer (resp. metric registry) whose events are collected into the
/// returned [`RunSummary`]. `seed_offset` shifts every simulation seed
/// (0 for normal runs).
pub fn capture_runs<T>(
    trace: bool,
    metrics: bool,
    seed_offset: u64,
    f: impl FnOnce() -> T,
) -> (T, RunSummary) {
    CAPTURE.with(|c| {
        *c.borrow_mut() = CaptureState {
            trace_all: trace,
            metrics_all: metrics,
            seed_offset,
            ..CaptureState::default()
        }
    });
    let out = f();
    let state = CAPTURE.with(|c| std::mem::take(&mut *c.borrow_mut()));
    (out, state.summary)
}

fn record_sim(
    seed: u64,
    end: skyrise::sim::SimTime,
    tracer: Option<Tracer>,
    report: Option<SanitizerReport>,
    metrics: Option<MetricsSnapshot>,
) {
    CAPTURE.with(|c| {
        let s = &mut c.borrow_mut().summary;
        s.sims += 1;
        s.virtual_secs += end.as_secs_f64();
        let label = format!("sim{:02}-seed{:x}", s.sims - 1, seed);
        if let Some(t) = tracer {
            s.runs.push((label.clone(), t));
        }
        if let Some(r) = report {
            s.digests.push((label, r));
        }
        if let Some(m) = metrics {
            s.metrics.merge(&m);
        }
    });
}

/// What an experiment hands a simulation: a future over its context.
type SimBody<T> = std::pin::Pin<Box<dyn std::future::Future<Output = T>>>;

/// The one simulation runner: a fresh `Sim` on `seed` (plus the capture's
/// offset) with, in this order, the fault plan if any, a tracer when the
/// capture or `force_trace` asks for one, the metric registry when the
/// capture asks, and the sanitizer. Afterwards the registry snapshot's
/// digest is folded into the sanitizer — so nondeterministic telemetry
/// fails the sweep like any other divergent state — and the simulation is
/// recorded into the active capture.
fn run_sim<T: 'static>(
    seed: u64,
    faults: Option<skyrise::sim::FaultConfig>,
    force_trace: bool,
    f: impl FnOnce(skyrise::sim::SimCtx) -> SimBody<T> + 'static,
) -> T {
    let (trace_all, metrics_all, offset) = CAPTURE.with(|c| {
        let c = c.borrow();
        (c.trace_all, c.metrics_all, c.seed_offset)
    });
    let seed = seed.wrapping_add(offset);
    let mut sim = skyrise::sim::Sim::new(seed);
    if let Some(config) = faults {
        sim.install_faults(config);
    }
    let tracer = (trace_all || force_trace).then(|| sim.install_tracer());
    let registry = metrics_all.then(|| sim.install_metrics());
    let sanitizer = sim.enable_sanitizer();
    let ctx = sim.ctx();
    let h = sim.spawn(f(ctx));
    let end = sim.run();
    let snapshot = registry.map(|r| r.snapshot());
    if let Some(snap) = &snapshot {
        sanitizer.observe("telemetry", snap.digest());
    }
    record_sim(seed, end, tracer, sanitizer.report(), snapshot);
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
        let (out, summary) = capture_runs(true, false, 0, || {
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
        assert_eq!(summary.sims, 1);
        assert_eq!(summary.virtual_secs, 3.0);
        assert_eq!(summary.events(), 1);
        assert!(summary.chrome_json().contains("\"work\""));
        assert_eq!(summary.jsonl().lines().count(), 1);
    }

    #[test]
    fn capture_disabled_still_counts_sims() {
        let ((), summary) = capture_runs(false, false, 0, || {
            in_sim(8, |ctx| {
                Box::pin(async move {
                    ctx.sleep(skyrise::sim::SimDuration::from_secs(1)).await;
                })
            })
        });
        assert_eq!(summary.sims, 1);
        assert_eq!(summary.events(), 0);
        assert!(summary.runs.is_empty());
    }

    #[test]
    fn seed_offset_shifts_sim_seeds() {
        fn seed_of(offset: u64) -> u64 {
            let ((), summary) = capture_runs(true, false, offset, || {
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
            capture_runs(false, false, 0, || {
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
    fn metrics_capture_merges_across_sims() {
        let ((), summary) = capture_runs(false, true, 0, || {
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
        assert_eq!(summary.sims, 2);
        assert_eq!(summary.metrics.counters["test.capture.runs"], 2);
        // Executor self-profiling rides along once a registry is live.
        assert!(summary.metrics.counters["sim.executor.polls"] > 0);
    }

    #[test]
    fn telemetry_digest_feeds_the_sanitizer() {
        fn digest_of(metrics: bool, extra: u64) -> u64 {
            let ((), summary) = capture_runs(false, metrics, 0, || {
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
        // digest; telemetry off leaves the baseline digest untouched.
        assert_eq!(digest_of(true, 1), digest_of(true, 1));
        assert_ne!(digest_of(true, 1), digest_of(true, 2));
        assert_eq!(digest_of(false, 1), digest_of(false, 2));
    }
}
