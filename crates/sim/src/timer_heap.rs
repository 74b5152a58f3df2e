//! Cancellation-aware timer queue: the executor's pending sleeps.
//!
//! Timers rank by `(deadline, armed_at, seq)` where `seq` is an insertion
//! counter. An ordinary sleep is armed at the instant it registers, and
//! `seq` grows with the clock, so among ordinary timers equal deadlines
//! fire in registration order — the determinism sweep depends on it. A
//! sleep that stands for a chain of shorter sleeps
//! (`SimCtx::sleep_slices`) registers early but passes the instant at which
//! the *last* link of the chain would have registered, and so fires where
//! that link would have.
//!
//! The queue is a quaternary (4-ary) implicit min-heap with 16 FIFO
//! **lanes** beside it. The simulator's throughput figures are millions of
//! fixed-delay sleeps (a transfer's 10 ms slice, a throttled request's
//! reject latency), and ordinary sleeps of one span `deadline - armed_at`
//! arrive in rank order, because the clock and `seq` only grow. A lane
//! holds timers of one span and takes a timer only when it ranks after the
//! lane's tail, so every lane is sorted by construction. Only a lane's
//! front sits in the heap, as an ordinary entry; the rest wait behind it in
//! a `VecDeque`, and when the front leaves the heap the next one takes its
//! place. A lane timer is therefore pushed in O(1), and the heap holds the
//! lane fronts and the other timers (one-off spans, a span whose lanes are
//! taken, a timer armed ahead of the clock) rather than every timer. The
//! heap compares full ranks, so the pop order is exactly that of one heap
//! over every timer, ties between a lane and the rest included. The low
//! bits of each rank's `seq` name the timer's lane, so a front leaving the
//! heap says which lane refills its place.
//!
//! Every timer has a generation-indexed slot recording where it sits. A
//! cancelled heap entry is removed at once: a position lookup plus one
//! sift. A cancelled timer behind a lane's front stays there as a
//! tombstone (its slot's generation has moved on) and is skipped when it
//! would become the front, so the heap holds only live timers and
//! [`TimerHeap::peek_deadline`] never reports an instant at which nothing
//! fires.
//!
//! A 4-ary layout does the same work in half the tree height of a binary
//! heap, which suits the sift-down-heavy pop loop. The heap array holds
//! each entry's rank inline, so a sift compares neighbours of one
//! contiguous array (four children are 128 bytes) and writes to the slot
//! table only the new position of an entry it moved.

use crate::time::SimTime;
use std::collections::VecDeque;

/// Key returned by [`TimerHeap::insert`]: `generation << 32 | slot index`.
pub type TimerKey = u64;

const INDEX_BITS: u32 = 32;
const INDEX_MASK: u64 = (1 << INDEX_BITS) - 1;
const ARITY: usize = 4;
/// Position value for slots not currently in use (free slots).
const NO_POS: u32 = u32::MAX;
/// Position value for timers waiting behind their lane's front.
const IN_LANE: u32 = u32::MAX - 1;
/// Number of FIFO lanes.
const LANES: usize = 16;
/// Low bits of a rank's `seq`, naming the timer's lane or `NO_LANE`.
const LANE_BITS: u32 = 5;
const NO_LANE: u64 = (1 << LANE_BITS) - 1;
const _: () = assert!((LANES as u64) < NO_LANE);
/// The span of a lane no timer has claimed.
const NO_SPAN: u64 = u64::MAX;

/// `(deadline, armed_at, seq)`. `seq` is the insertion counter above
/// `LANE_BITS` bits naming the timer's lane: unique, so ranks never tie,
/// and ordered by the counter alone.
type Rank = (SimTime, SimTime, u64);

#[inline]
fn split(key: TimerKey) -> (usize, u32) {
    ((key & INDEX_MASK) as usize, (key >> INDEX_BITS) as u32)
}

/// The two lanes a span may use: two nibbles of murmur3's 64-bit
/// finaliser, since spans are round numbers of nanoseconds whose low bits
/// alone would collide. With two, a frequent span is shut out of lanes
/// only when long-lived timers of other spans hold both.
#[inline]
fn lanes_of(span: u64) -> [usize; 2] {
    let mut h = span;
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    [h as usize % LANES, (h >> 8) as usize % LANES]
}

/// A queued timer: its rank and the slot holding the rest of it. Ranks
/// live here and nowhere else, so sifting compares within one contiguous
/// array and touches `slots` only to record a move.
#[derive(Clone, Copy)]
struct Entry {
    rank: Rank,
    slot: u32,
    /// The slot's generation when the timer went in: an entry behind a
    /// lane's front whose slot has moved on is a tombstone.
    generation: u32,
}

struct TimerSlot<T> {
    generation: u32,
    /// Index into `heap`, `IN_LANE`, or `NO_POS` when free.
    pos: u32,
    payload: Option<T>,
}

/// A FIFO of timers of one span, in rank order. Its front is in the heap.
struct Lane {
    /// The span of the lane's timers, kept while the lane is idle.
    span: u64,
    /// The last other span that found the lane idle.
    candidate: u64,
    /// Whether the lane has a live timer: its front, in the heap.
    busy: bool,
    /// Rank of the last timer the lane took.
    tail: Rank,
    /// The timers behind the front, tombstones included.
    queue: VecDeque<Entry>,
}

/// Min-queue over `(deadline, armed_at, seq)`: a 4-ary heap fed by FIFO
/// lanes, with O(1) cancellation behind a lane's front and O(log n) in the
/// heap.
pub struct TimerHeap<T> {
    slots: Vec<TimerSlot<T>>,
    free: Vec<u32>,
    /// Implicit heap, ordered by `Entry::rank`.
    heap: Vec<Entry>,
    lanes: [Lane; LANES],
    /// Live timers behind their lane's front.
    queued: usize,
    /// The latest instant passed to [`TimerHeap::pop_due`]: the clock, as
    /// far as the queue can tell.
    now: SimTime,
    next_seq: u64,
    /// Timers that went into a lane.
    lane_inserts: u64,
}

impl<T> Default for TimerHeap<T> {
    fn default() -> Self {
        TimerHeap::new()
    }
}

impl<T> TimerHeap<T> {
    /// An empty queue.
    pub fn new() -> Self {
        TimerHeap {
            slots: Vec::new(),
            free: Vec::new(),
            heap: Vec::new(),
            lanes: std::array::from_fn(|_| Lane {
                span: NO_SPAN,
                candidate: NO_SPAN,
                busy: false,
                tail: (SimTime::ZERO, SimTime::ZERO, 0),
                queue: VecDeque::new(),
            }),
            queued: 0,
            now: SimTime::ZERO,
            next_seq: 0,
            lane_inserts: 0,
        }
    }

    /// Number of live (pending, uncancelled) timers.
    pub fn len(&self) -> usize {
        self.heap.len() + self.queued
    }

    /// True when no timer is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Timers that went into a FIFO lane.
    pub(crate) fn lane_inserts(&self) -> u64 {
        self.lane_inserts
    }

    /// Register a timer. Equal deadlines fire in `armed_at` order, and
    /// equal `(deadline, armed_at)` in insertion order.
    pub fn insert(&mut self, deadline: SimTime, armed_at: SimTime, payload: T) -> TimerKey {
        let seq = self.next_seq << LANE_BITS;
        self.next_seq += 1;
        let span = deadline.as_nanos().wrapping_sub(armed_at.as_nanos());
        // A timer armed ahead of the clock (a chained sleep) ranks after
        // the ordinary sleeps of its span still to come: in a lane it would
        // shut them out until it fired.
        let lane = if armed_at <= self.now {
            self.lane_for(span, (deadline, armed_at, seq))
        } else {
            None
        };
        let rank = (deadline, armed_at, seq | lane.map_or(NO_LANE, |l| l as u64));
        let (slot, generation) = self.claim_slot(payload);
        let key = ((generation as u64) << INDEX_BITS) | slot as u64;
        let entry = Entry {
            rank,
            slot,
            generation,
        };
        if let Some(lane) = lane {
            self.lane_inserts += 1;
            let lane = &mut self.lanes[lane];
            lane.tail = rank;
            if lane.busy {
                lane.queue.push_back(entry);
                self.slots[slot as usize].pos = IN_LANE;
                self.queued += 1;
                return key;
            }
            lane.busy = true;
        }
        self.heap.push(entry);
        self.sift_up(self.heap.len() - 1);
        key
    }

    /// Earliest pending deadline, if any.
    pub fn peek_deadline(&self) -> Option<SimTime> {
        self.heap.first().map(|e| e.rank.0)
    }

    /// Pop the earliest timer if its deadline is `<= now`, returning its
    /// payload. The freed slot is immediately reusable.
    pub fn pop_due(&mut self, now: SimTime) -> Option<T> {
        self.now = now;
        if self.heap.first()?.rank.0 > now {
            return None;
        }
        self.remove_at(0)
    }

    /// Cancel a pending timer. A heap entry is removed at once; a timer
    /// behind its lane's front is left there as a tombstone. Returns the
    /// payload, or `None` when the key is stale — already fired, already
    /// cancelled, or its slot reused.
    pub fn cancel(&mut self, key: TimerKey) -> Option<T> {
        let (index, generation) = split(key);
        let slot = self.slots.get(index)?;
        if slot.generation != generation || slot.pos == NO_POS {
            return None;
        }
        if slot.pos == IN_LANE {
            self.queued -= 1;
            return self.release(index as u32);
        }
        self.remove_at(slot.pos as usize)
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

    /// The lane a timer of `span` and `rank` joins, if any: the span's own
    /// lane when the timer ranks after its tail; else an idle lane of its
    /// two that it also found idle last time, so that a one-off span does
    /// not take a lane over.
    fn lane_for(&mut self, span: u64, rank: Rank) -> Option<usize> {
        let choices = lanes_of(span);
        if let Some(&lane) = choices.iter().find(|&&l| self.lanes[l].span == span) {
            let lane_state = &self.lanes[lane];
            return (!lane_state.busy || rank > lane_state.tail).then_some(lane);
        }
        for lane in choices {
            let lane_state = &mut self.lanes[lane];
            if !lane_state.busy {
                if lane_state.candidate == span {
                    lane_state.span = span;
                    return Some(lane);
                }
                lane_state.candidate = span;
            }
        }
        None
    }

    /// A free slot holding `payload`, and its generation.
    fn claim_slot(&mut self, payload: T) -> (u32, u32) {
        let payload = Some(payload);
        match self.free.pop() {
            Some(index) => {
                let slot = &mut self.slots[index as usize];
                slot.payload = payload;
                (index, slot.generation)
            }
            None => {
                let index = self.slots.len();
                assert!(index < IN_LANE as usize, "timer heap slot overflow");
                self.slots.push(TimerSlot {
                    generation: 0,
                    pos: NO_POS,
                    payload,
                });
                (index as u32, 0)
            }
        }
    }

    /// Take the next live timer of `lane` (a rank's lane bits; `NO_LANE`
    /// has none) off its queue, to become the lane's front; the lane goes
    /// idle when there is none.
    fn next_front(&mut self, lane: u64) -> Option<Entry> {
        let lane_state = self.lanes.get_mut(lane as usize)?;
        while let Some(entry) = lane_state.queue.pop_front() {
            if self.slots[entry.slot as usize].generation == entry.generation {
                self.queued -= 1;
                return Some(entry);
            }
        }
        lane_state.busy = false;
        None
    }

    /// Free a slot whose timer left the queue, turning any key or lane
    /// entry naming it stale, and return its payload.
    fn release(&mut self, index: u32) -> Option<T> {
        let slot = &mut self.slots[index as usize];
        slot.pos = NO_POS;
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(index);
        slot.payload.take()
    }

    /// Remove the entry at heap position `pos`, put the next timer of its
    /// lane (if any) in its place, restore the heap property, and free its
    /// slot.
    fn remove_at(&mut self, pos: usize) -> Option<T> {
        let slot_index = self.heap[pos].slot;
        match self.next_front(self.heap[pos].rank.2 & NO_LANE) {
            Some(front) => self.heap[pos] = front,
            None => {
                self.heap.swap_remove(pos);
            }
        }
        if pos < self.heap.len() {
            // The entry now at `pos` may violate the property in either
            // direction relative to its new neighbourhood; whichever sift
            // does not apply leaves it where it is.
            self.sift_down(pos);
            if pos > 0 {
                self.sift_up(pos);
            }
        }
        self.release(slot_index)
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

    /// True when `key`'s timer belongs to a lane: queued behind its
    /// front, or the front itself.
    fn in_lane<T>(h: &TimerHeap<T>, key: TimerKey) -> bool {
        match h.slots[split(key).0].pos {
            IN_LANE => true,
            pos => h.heap[pos as usize].rank.2 & NO_LANE != NO_LANE,
        }
    }

    /// Arm and cancel one timer of `span` at the queue's clock, so that the
    /// span's next timer finds an empty lane a second time and takes it.
    fn claim_lane<T>(h: &mut TimerHeap<T>, span: u64, payload: T) {
        let now = h.now.as_nanos();
        let key = h.insert(t(now + span), t(now), payload);
        assert!(!in_lane(h, key), "a span's first timer goes to the heap");
        h.cancel(key);
    }

    #[test]
    fn cancelled_lane_front_is_skipped() {
        let mut h = TimerHeap::new();
        claim_lane(&mut h, 10, "warm-up");
        let a = h.insert(t(10), t(0), "a");
        assert_eq!(h.pop_due(t(4)), None);
        let b = h.insert(t(14), t(4), "b");
        assert_eq!(h.pop_due(t(7)), None);
        let c = h.insert(t(17), t(7), "c");
        assert!([a, b, c].iter().all(|&k| in_lane(&h, k)));
        // A tombstone behind the front, then the front itself.
        assert_eq!(h.cancel(b), Some("b"));
        assert_eq!(h.peek_deadline(), Some(t(10)));
        assert_eq!(h.cancel(a), Some("a"));
        assert_eq!(h.peek_deadline(), Some(t(17)), "both tombstones dropped");
        assert_eq!(h.len(), 1);
        assert_eq!(h.pop_due(t(16)), None);
        assert_eq!(h.pop_due(t(17)), Some("c"));
        assert!(h.is_empty());
        assert_eq!(h.peek_deadline(), None);
    }

    #[test]
    fn same_span_ranking_below_the_tail_goes_to_the_heap() {
        let mut h = TimerHeap::new();
        claim_lane(&mut h, 10, "warm-up");
        assert_eq!(h.pop_due(t(10)), None);
        let tail = h.insert(t(20), t(10), "tail");
        // Armed before the tail, as a caller back-dating a timer would.
        let below = h.insert(t(15), t(5), "below");
        // Armed ahead of the clock: a chained sleep of the same span.
        let chained = h.insert(t(40), t(30), "chained");
        let after = h.insert(t(20), t(10), "after");
        assert!(in_lane(&h, tail) && in_lane(&h, after));
        assert!(!in_lane(&h, below) && !in_lane(&h, chained));
        assert_eq!(h.peek_deadline(), Some(t(15)));
        let mut popped = Vec::new();
        while let Some(v) = h.pop_due(t(100)) {
            popped.push(v);
        }
        assert_eq!(popped, ["below", "tail", "after", "chained"]);
    }

    #[test]
    fn equal_deadlines_across_lane_and_heap_pop_by_armed_then_seq() {
        let mut h = TimerHeap::new();
        claim_lane(&mut h, 10, "warm-up");
        assert_eq!(h.pop_due(t(15)), None);
        let first = h.insert(t(20), t(10), "lane armed 10");
        let tail = h.insert(t(25), t(15), "lane tail");
        // The same (deadline, armed_at) as `first`, later seq, below the tail.
        let twin = h.insert(t(20), t(10), "heap armed 10");
        let early = h.insert(t(20), t(5), "heap armed 5");
        let late = h.insert(t(20), t(12), "heap armed 12");
        assert!(in_lane(&h, first) && in_lane(&h, tail));
        assert!([twin, early, late].iter().all(|&k| !in_lane(&h, k)));
        let mut popped = Vec::new();
        while let Some(v) = h.pop_due(t(20)) {
            popped.push(v);
        }
        assert_eq!(
            popped,
            [
                "heap armed 5",
                "lane armed 10",
                "heap armed 10",
                "heap armed 12"
            ]
        );
        assert_eq!(h.pop_due(t(25)), Some("lane tail"));
    }

    #[test]
    fn update_payload_reaches_a_lane_entry() {
        let mut h = TimerHeap::new();
        claim_lane(&mut h, 10, 0u32);
        let k = h.insert(t(10), t(0), 1u32);
        assert!(in_lane(&h, k));
        assert!(h.update_payload(k, 2));
        assert_eq!(h.pop_due(t(10)), Some(2));
        assert!(!h.update_payload(k, 3), "fired lane key is stale");
        assert_eq!(h.cancel(k), None);
    }

    #[test]
    fn lane_keys_stay_stale_after_slot_reuse() {
        let mut h = TimerHeap::new();
        claim_lane(&mut h, 10, 0u32);
        let fired = h.insert(t(10), t(0), 1u32);
        assert_eq!(h.pop_due(t(10)), Some(1));
        let a = h.insert(t(20), t(10), 2u32);
        assert_eq!(a & INDEX_MASK, fired & INDEX_MASK, "slot reused");
        assert!(in_lane(&h, a));
        assert!(!h.update_payload(fired, 9));
        assert_eq!(h.cancel(fired), None);
        // A tombstone behind the live front whose slot a newer entry of
        // the same lane takes over: only the newer one fires.
        let b = h.insert(t(20), t(10), 3u32);
        assert_eq!(h.cancel(b), Some(3));
        assert_eq!(h.pop_due(t(15)), None);
        let c = h.insert(t(25), t(15), 4u32);
        assert_eq!(c & INDEX_MASK, b & INDEX_MASK, "slot reused");
        assert!(in_lane(&h, c));
        assert_eq!(h.cancel(b), None);
        assert_eq!(h.len(), 2);
        assert_eq!(h.pop_due(t(20)), Some(2));
        assert_eq!(h.pop_due(t(20)), None, "the tombstone is not `c`");
        assert_eq!(h.peek_deadline(), Some(t(25)));
        assert_eq!(h.pop_due(t(25)), Some(4));
        assert!(h.is_empty());
    }
}
