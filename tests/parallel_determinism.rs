//! Determinism across job counts, plus property tests for the scheduler's
//! slab and timer heap.
//!
//! Worker threads may only change wall-clock time, never a simulated bit:
//! a run on any number of workers must reproduce the committed
//! `results/<id>.digests.csv`. The cheap experiments do so on four workers
//! here; CI reruns the whole suite at `--jobs 1` and `--jobs 0`.

#[path = "support/same_seed.rs"]
mod same_seed;

use same_seed::{assert_matches_committed, RESULTS};
use skyrise_bench::experiments as e;

/// Cheap subset (static pricing tables + the fastest figure): always on.
#[test]
fn cheap_experiments_identical_across_jobs() {
    assert_matches_committed(
        &[
            "table01", "table02", "table03", "table04", "table07", "table08", "fig05",
        ],
        4,
    );
}

/// The committed digests files cover the registry: one per experiment, a
/// `sim,digest,events` header, rows labelled `sim00`, `sim01`, … with no
/// gap, and no file for a name the registry lacks.
#[test]
fn full_suite_identical_across_jobs() {
    for &(name, _) in e::ALL {
        let path = format!("{RESULTS}/{name}.digests.csv");
        let csv = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let mut rows = csv.lines();
        assert_eq!(rows.next(), Some("sim,digest,events"), "{path}: header");
        for (i, row) in rows.enumerate() {
            let fields: Vec<&str> = row.split(',').collect();
            let label = format!("sim{i:02}-seed");
            assert!(
                fields[0].starts_with(&label),
                "{path}: no sim{i:02}, `{row}` in its place"
            );
            assert!(
                matches!(fields[..], [_, digest, events] if digest.len() == 16
                    && u64::from_str_radix(digest, 16).is_ok()
                    && events.parse::<u64>().is_ok()),
                "{path}: malformed row `{row}`"
            );
        }
    }
    for entry in std::fs::read_dir(RESULTS).expect("results/") {
        let file = entry.expect("results/ entry").file_name();
        let file = file.to_string_lossy();
        if let Some(stem) = file.strip_suffix(".digests.csv") {
            assert!(
                e::ALL.iter().any(|&(name, _)| name == stem),
                "results/{file}: no experiment `{stem}` in the registry"
            );
        }
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
                // Spans that repeat, as a transfer's slices and a throttled
                // request's rejects do, so the heap's FIFO lanes fill: an
                // ordinary sleep, or a chained one whose lead may equal its
                // delta (armed now) or fall short of it (armed ahead).
                3 => (0usize..2, 0usize..3).prop_map(|(d, lead)| {
                    let spans = [10u64, 40];
                    TimerOp::Insert(spans[d], spans.get(lead).copied())
                }),
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
        /// Deadline of every insert, by seq.
        deadlines: Vec<u64>,
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
            self.deadlines.push(deadline);
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
        /// The timer queue (FIFO lanes beside a quaternary heap) pops the
        /// same payloads at the same virtual times as a
        /// `BinaryHeap<Reverse<(deadline, armed_at, seq)>>` oracle with
        /// tombstone cancellation — including ties on the
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
                // The head is always a live timer: cancelled entries never
                // show through.
                let earliest = m.live.keys().map(|&seq| m.deadlines[seq as usize]).min();
                prop_assert_eq!(m.heap.peek_deadline(), earliest.map(SimTime::from_nanos));
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
