//! Cancellation-aware timer heap: the executor's timer queue.
//!
//! The previous implementation was a `BinaryHeap<Reverse<TimerEntry>>` with
//! a shared `fired` flag per entry: cancelling a sleep only set the flag,
//! leaving a tombstone that stayed in the heap (and kept its waker alive)
//! until it bubbled to the top. Workloads that cancel most of their timers
//! — `race` against a timeout, speculative re-execution, retry backoff —
//! paid `O(log n)` twice per dead entry and held the heap artificially
//! large.
//!
//! This heap removes cancelled entries *immediately*: every entry has a
//! generation-indexed slot that tracks its position in a quaternary
//! (4-ary) implicit heap, so [`TimerHeap::cancel`] is a position lookup
//! plus one sift. A 4-ary layout does the same work in half the tree
//! height of a binary heap, which suits the sift-down-heavy pop loop (the
//! repo benchmark's `sim.probe.*_mev_s` probes measure it). The heap array
//! holds each entry's rank inline, so a sift compares neighbours of one
//! contiguous array (four children are 128 bytes) and writes to the slot
//! table only the new position of an entry it moved.
//!
//! Ordering is `(deadline, armed_at, seq)` where `seq` is an insertion
//! counter. An ordinary sleep is armed at the instant it registers, and
//! `seq` grows with the clock, so among ordinary timers equal deadlines
//! fire in registration order, exactly like the old heap — the determinism
//! sweep depends on it. A sleep that stands for a chain of shorter sleeps
//! (`SimCtx::sleep_slices`) registers early but passes the instant at which
//! the *last* link of the chain would have registered, and so fires where
//! that link would have.

use crate::time::SimTime;

/// Key returned by [`TimerHeap::insert`]: `generation << 32 | slot index`.
pub type TimerKey = u64;

const INDEX_BITS: u32 = 32;
const INDEX_MASK: u64 = (1 << INDEX_BITS) - 1;
const ARITY: usize = 4;
/// Position value for slots not currently in the heap (free slots).
const NO_POS: u32 = u32::MAX;

#[inline]
fn split(key: TimerKey) -> (usize, u32) {
    ((key & INDEX_MASK) as usize, (key >> INDEX_BITS) as u32)
}

/// A heap entry: the timer's rank and the slot holding the rest of it.
/// Ranks live here and nowhere else, so sifting compares within one
/// contiguous array and touches `slots` only to record a move.
#[derive(Clone, Copy)]
struct Entry {
    /// `(deadline, armed_at, seq)`; `seq` is unique, so ranks never tie.
    rank: (SimTime, SimTime, u64),
    slot: u32,
}

struct TimerSlot<T> {
    generation: u32,
    /// Index into `heap`, or `NO_POS` when free.
    pos: u32,
    payload: Option<T>,
}

/// 4-ary min-heap over `(deadline, armed_at, seq)` with O(log n)
/// cancellation.
pub struct TimerHeap<T> {
    slots: Vec<TimerSlot<T>>,
    free: Vec<u32>,
    /// Implicit heap, ordered by `Entry::rank`.
    heap: Vec<Entry>,
    next_seq: u64,
}

impl<T> Default for TimerHeap<T> {
    fn default() -> Self {
        TimerHeap::new()
    }
}

impl<T> TimerHeap<T> {
    /// An empty heap.
    pub fn new() -> Self {
        TimerHeap {
            slots: Vec::new(),
            free: Vec::new(),
            heap: Vec::new(),
            next_seq: 0,
        }
    }

    /// Number of live (pending, uncancelled) timers.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no timer is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Register a timer. Equal deadlines fire in `armed_at` order, and
    /// equal `(deadline, armed_at)` in insertion order.
    pub fn insert(&mut self, deadline: SimTime, armed_at: SimTime, payload: T) -> TimerKey {
        let rank = (deadline, armed_at, self.next_seq);
        self.next_seq += 1;
        let payload = Some(payload);
        let (index, generation) = match self.free.pop() {
            Some(index) => {
                let slot = &mut self.slots[index as usize];
                slot.payload = payload;
                (index, slot.generation)
            }
            None => {
                let index = self.slots.len();
                assert!(index <= INDEX_MASK as usize, "timer heap slot overflow");
                self.slots.push(TimerSlot {
                    generation: 0,
                    pos: NO_POS,
                    payload,
                });
                (index as u32, 0)
            }
        };
        self.heap.push(Entry { rank, slot: index });
        self.sift_up(self.heap.len() - 1);
        ((generation as u64) << INDEX_BITS) | index as u64
    }

    /// Earliest pending deadline, if any.
    pub fn peek_deadline(&self) -> Option<SimTime> {
        self.heap.first().map(|e| e.rank.0)
    }

    /// Pop the earliest timer if its deadline is `<= now`, returning its
    /// payload. The freed slot is immediately reusable.
    pub fn pop_due(&mut self, now: SimTime) -> Option<T> {
        if self.heap.first()?.rank.0 > now {
            return None;
        }
        self.remove_at(0)
    }

    /// Cancel a pending timer, removing its entry from the heap at once
    /// (no tombstone). Returns the payload, or `None` when the key is
    /// stale — already fired, already cancelled, or its slot reused.
    pub fn cancel(&mut self, key: TimerKey) -> Option<T> {
        let (index, generation) = split(key);
        let slot = self.slots.get(index)?;
        if slot.generation != generation || slot.pos == NO_POS {
            return None;
        }
        let pos = slot.pos as usize;
        self.remove_at(pos)
    }

    /// Replace the payload of a pending timer (same deadline/seq — used to
    /// re-point a sleep at the task now polling it without re-queueing).
    /// Returns false when the key is stale.
    pub fn update_payload(&mut self, key: TimerKey, payload: T) -> bool {
        let (index, generation) = split(key);
        match self.slots.get_mut(index) {
            Some(slot) if slot.generation == generation && slot.pos != NO_POS => {
                slot.payload = Some(payload);
                true
            }
            _ => false,
        }
    }

    /// Remove the entry at heap position `pos`, restore the heap property,
    /// and free its slot.
    fn remove_at(&mut self, pos: usize) -> Option<T> {
        let slot_index = self.heap.swap_remove(pos).slot;
        if pos < self.heap.len() {
            // The swapped-in entry may violate the property in either
            // direction relative to its new neighbourhood; whichever sift
            // does not apply leaves it where it is.
            self.sift_down(pos);
            self.sift_up(pos);
        }
        let slot = &mut self.slots[slot_index as usize];
        slot.pos = NO_POS;
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(slot_index);
        slot.payload.take()
    }

    /// Write `entry` at heap position `pos` and record the position in its
    /// slot.
    #[inline]
    fn place(&mut self, pos: usize, entry: Entry) {
        self.heap[pos] = entry;
        self.slots[entry.slot as usize].pos = pos as u32;
    }

    /// Move the entry at `pos` towards the root until its parent ranks
    /// no later, shifting the parents it passes down into the gap.
    fn sift_up(&mut self, mut pos: usize) {
        let entry = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / ARITY;
            let up = self.heap[parent];
            if entry.rank >= up.rank {
                break;
            }
            self.place(pos, up);
            pos = parent;
        }
        self.place(pos, entry);
    }

    /// Move the entry at `pos` towards the leaves until no child ranks
    /// earlier, shifting the earliest child up into the gap each level.
    fn sift_down(&mut self, mut pos: usize) {
        let entry = self.heap[pos];
        loop {
            let first_child = pos * ARITY + 1;
            if first_child >= self.heap.len() {
                break;
            }
            let last_child = (first_child + ARITY).min(self.heap.len());
            let mut best = first_child;
            for c in first_child + 1..last_child {
                if self.heap[c].rank < self.heap[best].rank {
                    best = c;
                }
            }
            let child = self.heap[best];
            if entry.rank <= child.rank {
                break;
            }
            self.place(pos, child);
            pos = best;
        }
        self.place(pos, entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn pops_in_deadline_then_insertion_order() {
        let mut h = TimerHeap::new();
        h.insert(t(30), t(0), "c");
        h.insert(t(10), t(0), "a1");
        h.insert(t(10), t(0), "a2");
        h.insert(t(20), t(0), "b");
        assert_eq!(h.peek_deadline(), Some(t(10)));
        assert_eq!(h.pop_due(t(100)), Some("a1"));
        assert_eq!(h.pop_due(t(100)), Some("a2"));
        assert_eq!(h.pop_due(t(100)), Some("b"));
        assert_eq!(h.pop_due(t(100)), Some("c"));
        assert_eq!(h.pop_due(t(100)), None);
    }

    #[test]
    fn equal_deadlines_pop_in_armed_then_insertion_order() {
        let mut h = TimerHeap::new();
        // A chained sleep registers first but is armed last.
        h.insert(t(40), t(30), "chain");
        h.insert(t(40), t(5), "early");
        h.insert(t(40), t(30), "same-instant");
        h.insert(t(40), t(35), "late");
        let mut popped = Vec::new();
        while let Some(v) = h.pop_due(t(40)) {
            popped.push(v);
        }
        assert_eq!(popped, ["early", "chain", "same-instant", "late"]);
    }

    #[test]
    fn pop_due_respects_now() {
        let mut h = TimerHeap::new();
        h.insert(t(50), t(0), ());
        assert_eq!(h.pop_due(t(49)), None);
        assert_eq!(h.pop_due(t(50)), Some(()));
    }

    #[test]
    fn cancel_removes_immediately() {
        let mut h = TimerHeap::new();
        let a = h.insert(t(10), t(0), "a");
        h.insert(t(20), t(0), "b");
        assert_eq!(h.len(), 2);
        assert_eq!(h.cancel(a), Some("a"));
        assert_eq!(h.len(), 1, "no tombstone left behind");
        assert_eq!(h.cancel(a), None, "double cancel misses");
        assert_eq!(h.peek_deadline(), Some(t(20)));
    }

    #[test]
    fn stale_key_after_reuse_misses() {
        let mut h = TimerHeap::new();
        let a = h.insert(t(10), t(0), 1u32);
        assert_eq!(h.pop_due(t(10)), Some(1));
        let b = h.insert(t(20), t(0), 2u32);
        // Slot reused: same index, newer generation.
        assert_eq!(a & INDEX_MASK, b & INDEX_MASK);
        assert_eq!(h.cancel(a), None);
        assert!(h.update_payload(b, 3));
        assert_eq!(h.pop_due(t(20)), Some(3));
    }

    #[test]
    fn interleaved_cancel_keeps_order() {
        let mut h = TimerHeap::new();
        let keys: Vec<_> = (0..100u64).map(|i| h.insert(t(i % 10), t(0), i)).collect();
        for (i, k) in keys.iter().enumerate() {
            if i % 3 == 0 {
                assert!(h.cancel(*k).is_some());
            }
        }
        let mut popped = Vec::new();
        while let Some(v) = h.pop_due(t(1_000)) {
            popped.push(v);
        }
        let mut expect: Vec<u64> = (0..100).filter(|i| i % 3 != 0).collect();
        expect.sort_by_key(|&i| (i % 10, i));
        assert_eq!(popped, expect);
    }
}
