//! The same-seed contract of the experiment harness, shared by
//! `tests/parallel_determinism.rs` and `tests/determinism_sweep.rs`.

use skyrise_bench::experiments as e;
use skyrise_bench::harness::{run_jobs, ExperimentJob};

/// Run the named experiments, in the order given (a name may repeat),
/// through the harness with 1 worker and with `workers` workers, and
/// assert the two runs are indistinguishable.
pub fn assert_parallel_matches_serial(names: &[&str], workers: usize) {
    let jobs = || -> Vec<ExperimentJob> {
        names
            .iter()
            .map(|wanted| {
                let &(name, run) = e::ALL
                    .iter()
                    .find(|(name, _)| name == wanted)
                    .unwrap_or_else(|| panic!("unknown experiment `{wanted}`"));
                ExperimentJob {
                    name,
                    run,
                    trace_out: None,
                    metrics: true,
                }
            })
            .collect()
    };
    let serial = run_jobs(jobs(), 1);
    let parallel = run_jobs(jobs(), workers);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        // Submission order is preserved regardless of completion order.
        assert_eq!(s.name, p.name, "result order diverged");
        assert_eq!(s.sims, p.sims, "{}: simulation count diverged", s.name);
        // The harness enables the sanitizer in every simulation; pure
        // pricing arithmetic runs none and passes vacuously.
        assert_eq!(
            s.digests.len() as u64,
            s.sims,
            "{}: a simulation ran without its sanitizer",
            s.name
        );
        assert_eq!(
            s.digests.len(),
            p.digests.len(),
            "{}: sanitized simulations diverged",
            s.name
        );
        for ((label_s, rep_s), (label_p, rep_p)) in s.digests.iter().zip(&p.digests) {
            assert_eq!(label_s, label_p, "{}: simulation order diverged", s.name);
            assert!(
                rep_s == rep_p,
                "{}: nondeterminism in {label_s} between --jobs 1 and --jobs {workers}: \
                 digests {:#018x} vs {:#018x} ({} vs {} events), first divergence at event {:?}",
                s.name,
                rep_s.digest,
                rep_p.digest,
                rep_s.events,
                rep_p.events,
                rep_s.first_divergence(rep_p)
            );
        }
        assert!(
            s.sims == 0 || !s.metrics.is_empty(),
            "{}: simulations ran without registering any metric",
            s.name
        );
        let sj = serde_json::to_string(&s.result).expect("results serialise");
        let pj = serde_json::to_string(&p.result).expect("results serialise");
        assert_eq!(sj, pj, "{}: ExperimentResult JSON diverged", s.name);
        // Telemetry snapshots are part of the contract too: byte-identical
        // canonical JSON between --jobs 1 and --jobs N.
        assert_eq!(
            s.metrics.canonical_json(),
            p.metrics.canonical_json(),
            "{}: telemetry snapshot diverged between --jobs 1 and --jobs {workers}",
            s.name
        );
    }
}
