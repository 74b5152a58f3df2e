//! The coordination primitive simulation tasks share: a counting
//! [`Semaphore`], single-threaded (`Rc`-based) and deterministic, with
//! waiters released strictly in FIFO order.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

struct Waiter {
    waker: Option<Waker>,
    /// `None` while waiting, `Some(true)` once granted, `Some(false)` if the
    /// acquire future was dropped before being granted.
    state: Cell<WaiterState>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum WaiterState {
    Waiting,
    Granted,
    Cancelled,
}

struct SemState {
    permits: usize,
    waiters: VecDeque<Rc<RefCell<Waiter>>>,
}

/// A counting semaphore with FIFO fairness.
#[derive(Clone)]
pub struct Semaphore {
    state: Rc<RefCell<SemState>>,
}

impl Semaphore {
    /// Create with an initial permit count.
    pub fn new(permits: usize) -> Self {
        Semaphore {
            state: Rc::new(RefCell::new(SemState {
                permits,
                waiters: VecDeque::new(),
            })),
        }
    }

    /// Currently available permits.
    pub fn available(&self) -> usize {
        self.state.borrow().permits
    }

    /// Acquire one permit, waiting if none is available. The permit is
    /// released when the returned guard drops.
    pub fn acquire(&self) -> Acquire {
        Acquire {
            sem: self.clone(),
            waiter: None,
        }
    }

    /// Add permits (used by guards on drop and for dynamic resizing).
    pub fn release(&self, n: usize) {
        let mut s = self.state.borrow_mut();
        s.permits += n;
        // Hand permits to waiters in FIFO order.
        while s.permits > 0 {
            let Some(w) = s.waiters.pop_front() else {
                break;
            };
            let w = w.borrow_mut();
            match w.state.get() {
                WaiterState::Cancelled => continue,
                WaiterState::Waiting => {
                    s.permits -= 1;
                    w.state.set(WaiterState::Granted);
                    if let Some(waker) = w.waker.clone() {
                        waker.wake();
                    }
                }
                WaiterState::Granted => unreachable!("granted waiter still queued"),
            }
        }
    }
}

/// Future returned by [`Semaphore::acquire`].
pub struct Acquire {
    sem: Semaphore,
    waiter: Option<Rc<RefCell<Waiter>>>,
}

impl Future for Acquire {
    type Output = SemaphoreGuard;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<SemaphoreGuard> {
        if let Some(w) = &self.waiter {
            let wb = w.borrow_mut();
            match wb.state.get() {
                WaiterState::Granted => {
                    drop(wb);
                    self.waiter = None;
                    return Poll::Ready(SemaphoreGuard {
                        sem: self.sem.clone(),
                    });
                }
                WaiterState::Waiting => {
                    drop(wb);
                    w.borrow_mut().waker = Some(cx.waker().clone());
                    return Poll::Pending;
                }
                WaiterState::Cancelled => unreachable!("cancelled while polled"),
            }
        }
        // First poll: fast path or enqueue.
        let mut s = self.sem.state.borrow_mut();
        if s.permits > 0 && s.waiters.is_empty() {
            s.permits -= 1;
            drop(s);
            return Poll::Ready(SemaphoreGuard {
                sem: self.sem.clone(),
            });
        }
        let w = Rc::new(RefCell::new(Waiter {
            waker: Some(cx.waker().clone()),
            state: Cell::new(WaiterState::Waiting),
        }));
        s.waiters.push_back(Rc::clone(&w));
        drop(s);
        self.waiter = Some(w);
        Poll::Pending
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        if let Some(w) = &self.waiter {
            let state = w.borrow().state.get();
            match state {
                WaiterState::Waiting => w.borrow().state.set(WaiterState::Cancelled),
                // Granted but never returned: give the permit back.
                WaiterState::Granted => self.sem.release(1),
                WaiterState::Cancelled => {}
            }
        }
    }
}

/// RAII permit. Dropping releases the permit.
pub struct SemaphoreGuard {
    sem: Semaphore,
}

impl Drop for SemaphoreGuard {
    fn drop(&mut self) {
        self.sem.release(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::time::SimDuration;

    #[test]
    fn semaphore_limits_concurrency() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let sem = Semaphore::new(2);
            let peak = Rc::new(Cell::new(0usize));
            let cur = Rc::new(Cell::new(0usize));
            let handles: Vec<_> = (0..10)
                .map(|_| {
                    let sem = sem.clone();
                    let peak = Rc::clone(&peak);
                    let cur = Rc::clone(&cur);
                    let ctx2 = ctx.clone();
                    ctx.spawn(async move {
                        let _g = sem.acquire().await;
                        cur.set(cur.get() + 1);
                        peak.set(peak.get().max(cur.get()));
                        ctx2.sleep(SimDuration::from_millis(5)).await;
                        cur.set(cur.get() - 1);
                    })
                })
                .collect();
            crate::executor::join_all(handles).await;
            peak.get()
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), 2);
    }

    #[test]
    fn semaphore_fifo_order() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let sem = Semaphore::new(1);
            let order = Rc::new(RefCell::new(Vec::new()));
            let first = sem.acquire().await;
            let handles: Vec<_> = (0..4u32)
                .map(|i| {
                    let sem = sem.clone();
                    let order = Rc::clone(&order);
                    ctx.spawn(async move {
                        let _g = sem.acquire().await;
                        order.borrow_mut().push(i);
                    })
                })
                .collect();
            // Let all of them enqueue before releasing.
            ctx.sleep(SimDuration::from_millis(1)).await;
            drop(first);
            crate::executor::join_all(handles).await;
            let v = order.borrow().clone();
            v
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), vec![0, 1, 2, 3]);
    }
}
