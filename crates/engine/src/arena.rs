//! Per-invocation scratch arena for operator kernels.
//!
//! The vectorised pipeline allocates many short-lived buffers per worker
//! invocation: selection vectors, normalized key words, hash-table
//! scratch, gather location tables. Rather than hitting the global
//! allocator for each, kernels draw them from a thread-local [`Arena`]
//! that recycles buffers *within* one invocation and is reset *between*
//! invocations (`execute_chain` resets on entry), so a warm worker's
//! steady-state allocation traffic is bounded by its widest operator.
//!
//! The arena also meters itself: every draw adds the **requested** byte
//! count (capacity the kernel asked for, not what the pool happened to
//! hold) to a counter, so the numbers are identical across `--jobs`
//! levels and feed the deterministic telemetry/sanitizer digests. The
//! counters are plain `Cell` bumps — no branch on whether metrics are
//! enabled; the worker decides at emission time.
//!
//! Buffers drawn from the arena are ordinary `Vec`s: kernels may hand
//! them back with `recycle_*` for reuse, or simply let them drop (e.g.
//! a selection vector that escapes into the output stream) — recycling
//! is best-effort, never required for correctness.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Allocation metering for one chain invocation (reported separately
/// from `OpChainStats`, which must stay bit-compatible with the scalar
/// oracle's).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArenaReport {
    /// Total bytes requested from the arena during the invocation.
    pub bytes_allocated: u64,
    /// Arena resets performed (one per chain invocation).
    pub resets: u64,
    /// Requested bytes attributed to each operator, in chain order.
    pub per_op: Vec<(&'static str, u64)>,
}

#[derive(Default)]
struct Pools {
    u32s: Vec<Vec<u32>>,
    u64s: Vec<Vec<u64>>,
    i64s: Vec<Vec<i64>>,
    locs: Vec<Vec<(u32, u32)>>,
}

#[derive(Default)]
struct Inner {
    pools: RefCell<Pools>,
    bytes: Cell<u64>,
    resets: Cell<u64>,
}

/// Handle to the thread-local scratch arena. Cheap to clone (one `Rc`).
#[derive(Clone, Default)]
pub struct Arena {
    inner: Rc<Inner>,
}

thread_local! {
    static CURRENT: Arena = Arena::default();
}

/// Cap on buffers retained per pool — beyond this, returned buffers drop
/// to the global allocator instead of accumulating.
const POOL_CAP: usize = 16;

impl Arena {
    /// The calling thread's arena.
    pub fn current() -> Arena {
        CURRENT.with(|a| a.clone())
    }

    /// Start a new invocation: clears pools (releasing held memory) and
    /// the byte counter, and bumps the reset count.
    pub fn reset(&self) {
        let mut pools = self.inner.pools.borrow_mut();
        pools.u32s.clear();
        pools.u64s.clear();
        pools.i64s.clear();
        pools.locs.clear();
        self.inner.bytes.set(0);
        self.inner.resets.set(self.inner.resets.get() + 1);
    }

    /// Bytes requested since the last [`reset`](Self::reset).
    pub fn bytes_allocated(&self) -> u64 {
        self.inner.bytes.get()
    }

    /// Resets performed since the arena was created.
    pub fn resets(&self) -> u64 {
        self.inner.resets.get()
    }

    /// Meter `bytes` of externally-allocated scratch against this arena
    /// (e.g. a buffer sized inside a callee that cannot see the arena).
    pub fn note(&self, bytes: usize) {
        self.inner.bytes.set(self.inner.bytes.get() + bytes as u64);
    }

    /// Draw an empty `Vec<u32>` with room for `cap` elements.
    pub fn u32s(&self, cap: usize) -> Vec<u32> {
        self.note(cap * 4);
        let mut v = self.inner.pools.borrow_mut().u32s.pop().unwrap_or_default();
        v.clear();
        v.reserve(cap);
        v
    }

    /// Return a `Vec<u32>` for reuse within this invocation.
    pub fn recycle_u32(&self, mut v: Vec<u32>) {
        v.clear();
        let mut pools = self.inner.pools.borrow_mut();
        if pools.u32s.len() < POOL_CAP {
            pools.u32s.push(v);
        }
    }

    /// Draw an empty `Vec<u64>` with room for `cap` elements.
    pub fn u64s(&self, cap: usize) -> Vec<u64> {
        self.note(cap * 8);
        let mut v = self.inner.pools.borrow_mut().u64s.pop().unwrap_or_default();
        v.clear();
        v.reserve(cap);
        v
    }

    /// Return a `Vec<u64>` for reuse within this invocation.
    pub fn recycle_u64(&self, mut v: Vec<u64>) {
        v.clear();
        let mut pools = self.inner.pools.borrow_mut();
        if pools.u64s.len() < POOL_CAP {
            pools.u64s.push(v);
        }
    }

    /// Draw an empty `Vec<i64>` with room for `cap` elements.
    pub fn i64s(&self, cap: usize) -> Vec<i64> {
        self.note(cap * 8);
        let mut v = self.inner.pools.borrow_mut().i64s.pop().unwrap_or_default();
        v.clear();
        v.reserve(cap);
        v
    }

    /// Return a `Vec<i64>` for reuse within this invocation.
    pub fn recycle_i64(&self, mut v: Vec<i64>) {
        v.clear();
        let mut pools = self.inner.pools.borrow_mut();
        if pools.i64s.len() < POOL_CAP {
            pools.i64s.push(v);
        }
    }

    /// Draw an empty `Vec<(u32, u32)>` (gather location table) with room
    /// for `cap` elements.
    pub fn locs(&self, cap: usize) -> Vec<(u32, u32)> {
        self.note(cap * 8);
        let mut v = self.inner.pools.borrow_mut().locs.pop().unwrap_or_default();
        v.clear();
        v.reserve(cap);
        v
    }

    /// Return a location table for reuse within this invocation.
    pub fn recycle_locs(&self, mut v: Vec<(u32, u32)>) {
        v.clear();
        let mut pools = self.inner.pools.borrow_mut();
        if pools.locs.len() < POOL_CAP {
            pools.locs.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_metered_by_request_not_capacity() {
        let a = Arena::default();
        a.reset();
        assert_eq!(a.bytes_allocated(), 0);
        let v = a.u32s(100);
        assert_eq!(a.bytes_allocated(), 400);
        a.recycle_u32(v);
        // The recycled buffer has capacity >= 100, but a smaller draw is
        // metered at its requested size — determinism across pool states.
        let _v2 = a.u32s(10);
        assert_eq!(a.bytes_allocated(), 440);
    }

    #[test]
    fn recycling_reuses_allocations() {
        let a = Arena::default();
        a.reset();
        let mut v = a.u64s(64);
        v.push(7);
        let ptr = v.as_ptr();
        a.recycle_u64(v);
        let v2 = a.u64s(32);
        assert!(v2.is_empty());
        assert_eq!(v2.as_ptr(), ptr);
    }

    #[test]
    fn reset_clears_counters_and_pools() {
        let a = Arena::default();
        a.reset();
        let v = a.i64s(8);
        a.recycle_i64(v);
        let r0 = a.resets();
        a.reset();
        assert_eq!(a.bytes_allocated(), 0);
        assert_eq!(a.resets(), r0 + 1);
        // Pool was cleared: the next draw is a fresh allocation (still
        // metered identically).
        let _ = a.locs(4);
        assert_eq!(a.bytes_allocated(), 32);
    }

    #[test]
    fn thread_local_identity() {
        let a = Arena::current();
        let b = Arena::current();
        a.note(5);
        assert!(b.bytes_allocated() >= 5);
    }
}
