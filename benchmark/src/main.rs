//! The repo benchmark. One process runs one workload from one thread:
//! set-up passes, then repetitions of identical work for `--seconds`, then
//! every metric by name with its unit, and last a JSON result line.
//!
//! `--trace 0` reports the end-to-end metrics with no span recorded and no
//! telemetry installed; `--trace 1` reports the per-layer metrics from
//! repetitions that carry the metric registry, and writes the harness's
//! own host-time spans to `<out>/trace-<workload>.json`.

// A host-side harness: wall-clock timing is its job. The repo's clippy.toml
// disallows it for the simulation crates, which this is not.
#![allow(clippy::disallowed_methods)]

mod json;
mod metrics;
mod probes;
mod reference;
mod span;
mod stats;
mod workloads;

use span::Recorder;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::Rep;

/// Set-up (input generation plus one warm-up repetition) is done this many
/// times in an untraced run, and `setup_s` is the median.
const SETUP_PASSES: usize = 3;
/// Timed repetitions never number fewer than this, however short
/// `--seconds` is.
const MIN_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

const USAGE: &str =
    "usage: skyrise-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
       skyrise-benchmark --describe";

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--describe" {
            return Ok(None);
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(bad("outside 0..60"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("not 0 or 1")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !metrics::WORKLOADS
        .iter()
        .any(|(name, _)| *name == args.workload)
    {
        let names: Vec<&str> = metrics::WORKLOADS.iter().map(|w| w.0).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    Ok(Some(args))
}

/// Peak resident set of this process, from `VmHWM`.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Every repetition of a run, by the part of the run it belongs to.
struct Reps {
    /// One per set-up pass.
    warm_up: Vec<Rep>,
    /// Timed, without telemetry.
    plain: Vec<Rep>,
    /// Timed, with the metric registry installed (traced runs only).
    traced: Vec<Rep>,
}

impl Reps {
    fn all(&self) -> impl Iterator<Item = &Rep> {
        self.warm_up.iter().chain(&self.plain).chain(&self.traced)
    }
}

/// Set-up passes, then timed repetitions for `--seconds`. Returns the
/// repetitions and the host seconds of each set-up pass.
fn measure(args: &Args, rec: &Recorder) -> (Reps, Vec<f64>) {
    let mut reps = Reps {
        warm_up: Vec::new(),
        plain: Vec::new(),
        traced: Vec::new(),
    };

    // Set-up: input generation plus one warm-up repetition. The first pass
    // starts with the process, so it also pays for page faults and
    // allocator growth; the median pass does not.
    let mut setup_s = Vec::new();
    let mut workload = None;
    for _ in 0..if args.trace { 1 } else { SETUP_PASSES } {
        // The inputs of the pass before go first, so that peak memory is
        // one set of inputs and not two.
        drop(workload.take());
        let _span = rec.span("setup");
        let started = Instant::now();
        let generated = {
            let _span = rec.span("generate");
            workloads::generate(&args.workload, args.seed).expect("the name was checked")
        };
        let _span = rec.span("rep");
        reps.warm_up.push(generated.rep(rec, false));
        setup_s.push(started.elapsed().as_secs_f64());
        workload = Some(generated);
    }
    let workload = workload.expect("at least one set-up pass");

    // Timed repetitions of identical work; what is timed is their phases.
    // A traced run alternates plain and traced repetitions, so that their
    // difference is the tracing overhead.
    let min_reps = if args.trace { 1 } else { MIN_REPS };
    let measuring = Instant::now();
    while reps.plain.len() < min_reps || measuring.elapsed().as_secs_f64() < args.seconds {
        {
            let _span = rec.span("rep");
            reps.plain.push(workload.rep(rec, false));
        }
        if args.trace {
            let _span = rec.span("rep.traced");
            reps.traced.push(workload.rep(rec, true));
        }
    }
    (reps, setup_s)
}

/// Operations attempted and the failed ones: every query or arm of every
/// repetition, and one determinism comparison per repetition after the
/// first.
fn verify(reps: &Reps) -> (u64, Vec<String>) {
    let first = &reps.warm_up[0];
    let mut attempted = 0;
    let mut failures = Vec::new();
    for (i, rep) in reps.all().enumerate() {
        attempted += rep.operations;
        failures.extend(rep.failures.iter().map(|f| format!("rep {i}: {f}")));
        if i > 0 {
            attempted += 1;
            let differs = |(name, v): &(&String, &u64)| rep.stats.get(*name) != Some(*v);
            if let Some((name, _)) = first.stats.iter().find(differs) {
                failures.push(format!(
                    "rep {i}: simulated statistic {name} differs from rep 0"
                ));
            } else if rep.stats.len() != first.stats.len() {
                failures.push(format!("rep {i}: reports statistics rep 0 does not"));
            }
        }
    }
    (attempted, failures)
}

/// Host seconds of one repetition: the sum over its phases of each
/// phase's first quartile over `reps`.
///
/// Noise on a shared machine is one-sided: it only ever gets slower, by 10
/// to 40 % for 5 to 15 s at a time on the container this was written on. A
/// median of whole repetitions moves with every spell that covers half of
/// a run. Taking each phase apart confines a spell to the phases it hit,
/// and the first quartile of a phase moves only when the spell covered
/// three quarters of its samples. It is not a best-of-N either: with four
/// samples it sits a quarter of the way from the fastest to the next.
fn sum_of_phase_quartiles(reps: &[Rep]) -> f64 {
    (0..reps[0].phases.len())
        .map(|i| {
            let samples: Vec<f64> = reps.iter().map(|r| r.phases[i].1).collect();
            // Under three samples the quartile formula extrapolates below
            // the fastest one (a traced run may time only one or two).
            if samples.len() < 3 {
                stats::min(&samples)
            } else {
                stats::quartiles(&samples).0
            }
        })
        .sum()
}

/// The sum of each repetition's phases, and how those sums spread.
fn summary(reps: &[Rep]) -> String {
    let xs: Vec<f64> = reps
        .iter()
        .map(|r| r.phases.iter().map(|p| p.1).sum())
        .collect();
    format!(
        "(whole reps: min {:.4}, max {:.4}, spread {:.2} %, n {})",
        stats::min(&xs),
        stats::max(&xs),
        100.0 * stats::spread(&xs),
        xs.len()
    )
}

/// The end-to-end metrics of an untraced run, printed by name.
fn end_to_end(reps: &Reps, setup_s: &[f64]) -> Result<BTreeMap<String, f64>, String> {
    let first = &reps.warm_up[0];
    let wall = sum_of_phase_quartiles(&reps.plain);
    let values = BTreeMap::from([
        ("wall_s".to_string(), wall),
        ("host_us_per_op".to_string(), wall * 1e6 / first.ops as f64),
        ("virtual_s".to_string(), first.virtual_s),
        ("cost_usd".to_string(), first.cost_usd),
        (
            "model_err_pct".to_string(),
            reference::model_err_pct(&first.headline)?,
        ),
        ("setup_s".to_string(), stats::median(setup_s)),
        ("peak_rss_mib".to_string(), peak_rss_mib()?),
    ]);
    for m in &metrics::END_TO_END {
        let detail = match m.name {
            "wall_s" => summary(&reps.plain),
            "setup_s" => format!("(passes: {setup_s:.4?})"),
            "host_us_per_op" => format!("({} modelled storage attempts per rep)", first.ops),
            _ => String::new(),
        };
        println!(
            "  {:<16} {:>18.6} {:<6} {detail}",
            m.name, values[m.name], m.unit
        );
    }
    Ok(values)
}

/// The per-layer metrics of a traced run, printed by name with what each
/// should move.
fn per_layer(args: &Args, rec: &Recorder, reps: &Reps) -> Result<BTreeMap<String, f64>, String> {
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    // Median over the traced repetitions; counts repeat exactly.
    for name in reps.traced.iter().flat_map(|r| r.layers.keys()) {
        let samples: Vec<f64> = reps
            .traced
            .iter()
            .filter_map(|r| r.layers.get(name).copied())
            .collect();
        values.insert(name.clone(), stats::median(&samples));
    }
    values.extend(probes::run(
        rec,
        args.seed,
        workloads::query_suite::PAYLOAD_SF,
    ));
    let (plain_s, traced_s) = (
        sum_of_phase_quartiles(&reps.plain),
        sum_of_phase_quartiles(&reps.traced),
    );
    values.insert(
        "trace.overhead_pct".into(),
        100.0 * (traced_s / plain_s - 1.0),
    );

    let known = metrics::per_layer();
    if let Some(stray) = values.keys().find(|k| !known.iter().any(|m| &m.name == *k)) {
        return Err(format!(
            "{stray} is measured but not a declared per-layer metric"
        ));
    }
    println!("  rep, plain    {plain_s:.4} s {}", summary(&reps.plain));
    println!("  rep, traced   {traced_s:.4} s {}", summary(&reps.traced));
    for m in &known {
        // A metric this workload does not exercise reads 0.
        let v = *values.entry(m.name.clone()).or_insert(0.0);
        println!(
            "  {:<44} {v:>18.6} {:<8} -> {} on {}",
            m.name,
            m.unit,
            m.moves,
            m.on.join(", ")
        );
    }
    for note in reps.traced.last().map_or(&[][..], |r| &r.notes) {
        println!("  {note}");
    }

    Ok(values)
}

/// Print host time by span name and write every span to the trace file.
fn write_trace(args: &Args, rec: &Recorder) -> Result<(), String> {
    let spans = rec.spans();
    let mut by_name: BTreeMap<&str, (f64, f64, usize)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(span::self_times(&spans)) {
        let e = by_name.entry(&s.name).or_default();
        *e = (e.0 + s.end_s - s.start_s, e.1 + own, e.2 + 1);
    }
    println!("  host seconds by span name: total, self, count");
    for (name, (total, own, n)) in by_name {
        println!("    {name:<32} {total:>10.4} {own:>10.4} {n:>6}");
    }
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let path = args.out.join(format!("trace-{}.json", args.workload));
    let run_id = format!("{}-seed{}", args.workload, args.seed);
    std::fs::write(&path, span::trace_json(&run_id, &spans))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("  spans written to {}", path.display());
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    let rec = Recorder::new(args.trace);
    let workload_span = rec.span(&args.workload);
    let measuring = Instant::now();
    let (reps, setup_s) = measure(args, &rec);
    println!(
        "{} seed {} trace {}: {} set-up pass(es) and {} timed rep(s) in {:.2} s, one thread",
        args.workload,
        args.seed,
        args.trace as u8,
        reps.warm_up.len(),
        reps.plain.len() + reps.traced.len(),
        measuring.elapsed().as_secs_f64()
    );
    let (attempted, failures) = verify(&reps);

    let (values, declared): (_, Vec<(String, &str)>) = if args.trace {
        let values = per_layer(args, &rec, &reps)?;
        (
            values,
            metrics::per_layer()
                .into_iter()
                .map(|m| (m.name, m.unit))
                .collect(),
        )
    } else {
        let values = end_to_end(&reps, &setup_s)?;
        (
            values,
            metrics::END_TO_END
                .iter()
                .map(|m| (m.name.to_string(), m.unit))
                .collect(),
        )
    };
    drop(workload_span);
    if args.trace {
        write_trace(args, &rec)?;
    }

    println!("  host seconds of each timed repetition's phases:");
    let names: Vec<&str> = reps.plain[0].phases.iter().map(|p| p.0.as_str()).collect();
    println!("    {}", names.join(" "));
    for (rep, mark) in reps
        .plain
        .iter()
        .map(|r| (r, ""))
        .chain(reps.traced.iter().map(|r| (r, " (traced)")))
    {
        let times: Vec<String> = rep.phases.iter().map(|p| format!("{:.4}", p.1)).collect();
        println!("    {}{mark}", times.join(" "));
    }
    let failed = failures.len();
    println!("  operations: {attempted} attempted, {failed} failed");
    for f in &failures {
        println!("  FAILED {f}");
    }
    if let Some((name, v)) = values.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("{name} is {v}"));
    }

    // The result line: exactly these keys, last on standard output.
    let fields: Vec<String> = declared
        .iter()
        .map(|(name, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(name),
                json::number(values[name]),
                json::string(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        fields.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", metrics::describe());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        // A failed check is reported in the result line, not by the exit
        // code: the run itself completed.
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark error: {e}");
            ExitCode::FAILURE
        }
    }
}
