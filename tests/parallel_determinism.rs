//! Parallel-vs-serial determinism contract plus property tests for the
//! scheduler's slab and timer heap.
//!
//! The acceptance bar of the parallel harness: running the experiment
//! suite with `--jobs 4` must be *indistinguishable* from `--jobs 1` —
//! identical per-simulation sanitizer digests in identical order, and
//! byte-identical `ExperimentResult` JSON. Worker threads may only change
//! wall-clock time, never a single simulated byte.
//!
//! The cheap experiments run in every `cargo test`; the full-suite
//! comparison mirrors `determinism_sweep.rs` and is `#[ignore]`d under
//! debug builds (release-mode CI runs it via `-- --ignored`).

use skyrise_bench::experiments as e;
use skyrise_bench::harness::{run_jobs, ExperimentJob};

/// Run the named experiments through the harness with 1 worker and with
/// `workers` workers, and assert the two runs are indistinguishable.
/// Returns the serial results so callers can make further assertions
/// against the (now provably job-count-independent) telemetry.
fn assert_parallel_matches_serial(
    names: &[&str],
    workers: usize,
) -> Vec<skyrise_bench::harness::CompletedExperiment> {
    let jobs = || -> Vec<ExperimentJob> {
        e::ALL
            .iter()
            .filter(|(name, _)| names.contains(name))
            .map(|&(name, run)| ExperimentJob {
                name,
                run,
                trace_out: None,
                metrics: true,
            })
            .collect()
    };
    let submitted = jobs().len();
    assert_eq!(submitted, names.len(), "unknown experiment name in filter");
    let serial = run_jobs(jobs(), 1);
    let parallel = run_jobs(jobs(), workers);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        // Submission order is preserved regardless of completion order.
        assert_eq!(s.name, p.name, "result order diverged");
        assert_eq!(s.sims, p.sims, "{}: simulation count diverged", s.name);
        assert_eq!(
            s.digests, p.digests,
            "{}: sanitizer digests diverged between --jobs 1 and --jobs {workers}",
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
    serial
}

/// Cheap subset (static pricing tables + the fastest figure): always on.
#[test]
fn cheap_experiments_identical_across_jobs() {
    assert_parallel_matches_serial(
        &[
            "table01", "table02", "table03", "table04", "table07", "table08", "fig05",
        ],
        4,
    );
}

/// The full suite, serial vs 4 workers. Long: release-mode CI only.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn full_suite_identical_across_jobs() {
    let all: Vec<&str> = e::ALL.iter().map(|&(name, _)| name).collect();
    assert_parallel_matches_serial(&all, 4);
}

/// The shuffle-read telemetry joins the determinism contract: the combining
/// ablation replays Q12 over both whole-object (`combine = 1`) and ranged
/// first fetches, and its `engine.shuffle.*` counters must land
/// in the merged snapshot — byte-identically across job counts (the
/// snapshot comparison in the shared helper) and with real traffic behind
/// them. Release-mode CI only: the ablation runs four query sweeps.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn shuffle_counters_identical_across_jobs() {
    let results = assert_parallel_matches_serial(&["ablation_combining"], 4);
    let snapshot = results[0].metrics.canonical_json();
    for counter in [
        "engine.shuffle.bytes_read",
        "engine.shuffle.bytes_whole_object",
        "engine.shuffle.bytes_pruned",
        "engine.shuffle.bytes_decoded",
    ] {
        assert!(
            snapshot.contains(counter),
            "{counter} missing from the merged telemetry snapshot"
        );
    }
}

// ---------------------------------------------------------------------------
// Scheduler data structure properties: slab and timer heap vs naive oracles
// ---------------------------------------------------------------------------

mod scheduler_props {
    use proptest::prelude::*;
    use skyrise::sim::{SimTime, Slab, TimerHeap, TimerKey};
    use std::cmp::Reverse;
    use std::collections::BTreeMap;
    use std::collections::BinaryHeap;

    /// A random interleaving of timer operations.
    #[derive(Debug, Clone)]
    enum TimerOp {
        /// Insert a timer at `now + delta`, armed at `now` (an ordinary
        /// sleep) or, for a chained sleep, `lead` before its deadline.
        Insert(u64, Option<u64>),
        /// Cancel the i-th live key (modulo the live set), if any.
        Cancel(usize),
        /// Replace the payload of the i-th live key, if any.
        Refresh(usize),
        /// `n` times over: cancel the i-th live key and insert a timer at
        /// `now + delta` straight away, which takes over the freed slot.
        Recycle(usize, usize, u64),
        /// Advance `now` by `delta` and drain everything due.
        Fire(u64),
    }

    fn timer_ops() -> impl Strategy<Value = Vec<TimerOp>> {
        prop::collection::vec(
            prop_oneof![
                3 => (0u64..1_000).prop_map(|d| TimerOp::Insert(d, None)),
                2 => (0u64..1_000, 0u64..300).prop_map(|(d, lead)| TimerOp::Insert(d, Some(lead))),
                1 => (0usize..64).prop_map(TimerOp::Cancel),
                1 => (0usize..64).prop_map(TimerOp::Refresh),
                1 => (0usize..64, 1usize..6, 0u64..1_000)
                    .prop_map(|(i, n, d)| TimerOp::Recycle(i, n, d)),
                2 => (0u64..500).prop_map(TimerOp::Fire),
            ],
            1..80,
        )
    }

    /// The heap under test beside its oracle.
    #[derive(Default)]
    struct HeapAndOracle {
        heap: TimerHeap<u64>,
        /// `(deadline, armed_at, seq)` of every insert; cancelled ones stay
        /// behind as tombstones.
        oracle: BinaryHeap<Reverse<(u64, u64, u64)>>,
        /// seq -> (heap key, current payload) of every pending timer.
        live: BTreeMap<u64, (TimerKey, u64)>,
        /// Keys that fired or were cancelled.
        stale: Vec<TimerKey>,
        inserts: u64,
    }

    impl HeapAndOracle {
        /// Insert under a payload no other timer has had.
        fn insert(&mut self, deadline: u64, armed_at: u64) -> TimerKey {
            let (seq, payload) = (self.inserts, 1_000_000 + self.inserts);
            self.inserts += 1;
            let (d, a) = (SimTime::from_nanos(deadline), SimTime::from_nanos(armed_at));
            let key = self.heap.insert(d, a, payload);
            self.oracle.push(Reverse((deadline, armed_at, seq)));
            self.live.insert(seq, (key, payload));
            key
        }

        /// Take the i-th pending timer (modulo their number) off the books.
        fn forget_nth(&mut self, i: usize) -> Option<(TimerKey, u64)> {
            let seq = *self.live.keys().nth(i % self.live.len().max(1))?;
            let (key, payload) = self.live.remove(&seq)?;
            self.stale.push(key);
            Some((key, payload))
        }
    }

    proptest! {
        /// The quaternary heap pops the same payloads at the same virtual
        /// times as a `BinaryHeap<Reverse<(deadline, armed_at, seq)>>`
        /// oracle with tombstone cancellation — including ties on the
        /// deadline, which must fire in armed-at order, and ties on both,
        /// which must fire in insertion order. Payloads are refreshed and
        /// slots recycled on the way: a timer fires with the payload it was
        /// last given, at the rank it was inserted with, whatever its slot
        /// held before.
        #[test]
        fn timer_heap_matches_binary_heap_oracle(ops in timer_ops()) {
            let mut m = HeapAndOracle::default();
            let mut now = 0u64;
            for op in ops {
                match op {
                    TimerOp::Insert(delta, lead) => {
                        let deadline = now + delta;
                        let armed_at = lead.map_or(now, |l| deadline.saturating_sub(l).max(now));
                        m.insert(deadline, armed_at);
                    }
                    TimerOp::Cancel(i) => {
                        let Some((key, payload)) = m.forget_nth(i) else { continue };
                        prop_assert_eq!(m.heap.cancel(key), Some(payload));
                        // Double-cancel must be a no-op.
                        prop_assert_eq!(m.heap.cancel(key), None);
                    }
                    TimerOp::Refresh(i) => {
                        let nth = i % m.live.len().max(1);
                        let Some(entry) = m.live.values_mut().nth(nth) else { continue };
                        entry.1 += 1_000_000_000;
                        prop_assert!(m.heap.update_payload(entry.0, entry.1));
                    }
                    TimerOp::Recycle(i, n, delta) => {
                        for round in 0..n {
                            let Some((old, payload)) = m.forget_nth(i + round) else { break };
                            prop_assert_eq!(m.heap.cancel(old), Some(payload));
                            let new = m.insert(now + delta + round as u64, now);
                            // Same slot, new generation: the old key is dead.
                            prop_assert_eq!(new as u32, old as u32);
                            prop_assert_ne!(new, old);
                        }
                    }
                    TimerOp::Fire(delta) => {
                        now += delta;
                        let t = SimTime::from_nanos(now);
                        while m.oracle.peek().is_some_and(|Reverse((d, _, _))| *d <= now) {
                            let Reverse((_, _, seq)) = m.oracle.pop().expect("peeked");
                            let Some((key, payload)) = m.live.remove(&seq) else {
                                continue; // a cancelled timer's tombstone
                            };
                            prop_assert_eq!(
                                m.heap.pop_due(t),
                                Some(payload),
                                "heap fired out of order at t={}",
                                now
                            );
                            m.stale.push(key);
                        }
                        prop_assert_eq!(m.heap.pop_due(t), None, "heap fired extra timer");
                    }
                }
                // A key that fired or was cancelled reaches nothing, not
                // even the timer that now lives in its slot.
                for &key in &m.stale {
                    prop_assert!(!m.heap.update_payload(key, 0));
                }
                prop_assert_eq!(m.heap.len(), m.live.len());
            }
        }

        /// Slab insert/remove/lookup behaves like a `HashMap` keyed by the
        /// returned `SlabKey`, and stale keys (freed slots, reused slots)
        /// never resolve.
        #[test]
        fn slab_matches_hashmap_oracle(ops in prop::collection::vec(
            prop_oneof![
                2 => (0u32..1_000).prop_map(|v| (0u8, v as usize)),  // insert v
                1 => (0usize..64).prop_map(|i| (1u8, i)),            // remove i-th live
                1 => (0usize..64).prop_map(|i| (2u8, i)),            // lookup i-th live
            ],
            1..120,
        )) {
            let mut slab: Slab<usize> = Slab::new();
            let mut oracle: BTreeMap<u64, usize> = BTreeMap::new();
            // `SlabKey` is a plain `u64` (`generation << 32 | index`).
            let mut live: Vec<skyrise::sim::SlabKey> = Vec::new();
            let mut dead: Vec<skyrise::sim::SlabKey> = Vec::new();
            for (kind, v) in ops {
                match kind {
                    0 => {
                        let key = slab.insert(v);
                        prop_assert!(oracle.insert(key, v).is_none(),
                            "slab handed out a live key twice");
                        live.push(key);
                    }
                    1 => {
                        if live.is_empty() { continue; }
                        let key = live.remove(v % live.len());
                        let expect = oracle.remove(&key);
                        prop_assert_eq!(slab.remove(key), expect);
                        prop_assert_eq!(slab.remove(key), None, "double-remove resolved");
                        dead.push(key);
                    }
                    _ => {
                        if live.is_empty() { continue; }
                        let key = live[v % live.len()];
                        prop_assert_eq!(slab.get(key).copied(), oracle.get(&key).copied());
                    }
                }
            }
            prop_assert_eq!(slab.len(), oracle.len());
            for key in live {
                prop_assert!(slab.contains(key));
            }
            for key in dead {
                prop_assert!(!slab.contains(key), "stale key still resolves");
            }
        }
    }
}
