//! A single-threaded async executor driven by virtual time.
//!
//! Services in the simulation are written as ordinary `async fn`s that call
//! [`SimCtx::sleep`] instead of blocking. The executor polls ready tasks to
//! quiescence, then jumps the virtual clock straight to the next timer
//! deadline — so a simulated day costs only as many polls as there are
//! events in it.
//!
//! The executor is deliberately deterministic: tasks are woken in FIFO
//! order, timers with equal deadlines fire in registration order (a
//! [`SimCtx::sleep_slices`] where the last sleep of the chain it replaces
//! would have), and the only randomness available to tasks flows through
//! the seeded [`SimRng`] accessible via [`SimCtx::with_rng`].
//!
//! ## Hot-path layout
//!
//! The scheduler's data structures are chosen for the poll loop, which
//! dominates the wall-clock cost of a full experiment suite (DESIGN.md §3
//! "Simulator performance"):
//!
//! * tasks live in a generation-indexed [`Slab`] — a `Vec` indexed by the
//!   low bits of the `TaskId`, so a poll is an array load, not a hash —
//!   with free-list reuse and generation checks that make stale wakes miss;
//! * timers live in a cancellation-aware quaternary [`TimerHeap`]: a
//!   cancelled sleep is removed immediately instead of leaving a tombstone
//!   that must bubble to the top of a `BinaryHeap`;
//! * a timer carries the [`TaskId`] of the task whose poll armed it, not a
//!   [`Waker`]: a sleep costs no reference count, and a fired timer goes
//!   straight onto the ready queue;
//! * each task's [`Waker`] is created once, kept in its slab slot and lent
//!   to the poll together with the future (no clone per poll); the wakes
//!   that need one — [`JoinHandle`], `sync::*`, [`YieldNow`] — go through a
//!   locked queue that the poll loop opens only when something was pushed;
//! * the slot also holds the instant of the task's previous poll, which is
//!   all the sanitizer's per-task monotonicity check needs;
//! * the tracer, sanitizer, fault plan, and RNG sit behind a single
//!   [`RefCell`] of scheduler hooks, borrowed once per step rather than
//!   once per handle.

use crate::faults::{FaultConfig, FaultPlan};
use crate::rng::SimRng;
use crate::sanitizer::Sanitizer;
use crate::slab::Slab;
use crate::telemetry::MetricRegistry;
use crate::time::{SimDuration, SimTime};
use crate::timer_heap::{TimerHeap, TimerKey};
use crate::trace::Tracer;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};

type LocalBoxFuture = Pin<Box<dyn Future<Output = ()>>>;

/// Identifier of a spawned task: a generation-indexed slab key. The low 32
/// bits index the task table; the high bits are the slot's generation, so
/// ids of completed tasks are never resurrected by slot reuse.
pub type TaskId = u64;

/// The queue of wakes raised through a [`Waker`]: a finished task waking
/// its [`JoinHandle`], `sync::*` releasing a waiter, [`YieldNow`]. `Waker`
/// must be `Send + Sync`, so this small piece of state uses `Arc`, a
/// `Mutex` and an atomic even though the executor itself is single-threaded.
/// Timers do not come through here (they carry a [`TaskId`], see
/// [`Sim::run_until`]), which leaves most polls with nothing to collect:
/// `pending` says so without taking the lock.
#[derive(Default)]
struct WakeQueue {
    woken: Mutex<Vec<TaskId>>,
    /// True when `woken` is non-empty. Written only under the lock (set
    /// with `Release` after a push, cleared by the drain), read with
    /// `Acquire` before the drain decides to lock.
    pending: AtomicBool,
}

struct TaskWaker {
    id: TaskId,
    queue: Arc<WakeQueue>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        let mut woken = self.queue.woken.lock().expect("wake queue poisoned");
        woken.push(self.id);
        self.queue.pending.store(true, Ordering::Release);
    }
}

/// One entry in the task slab.
struct Task {
    /// The future, `None` only while it is being polled.
    fut: Option<LocalBoxFuture>,
    /// The task's waker, created on first poll; it leaves the slot with the
    /// future for each poll and returns with it.
    waker: Option<Waker>,
    /// Instant of the previous poll (`ZERO` before the first), for the
    /// sanitizer's per-task monotonicity check.
    last_poll: SimTime,
}

/// Scheduler hooks behind one cell: everything the executor (and tasks,
/// via [`SimCtx`]) consults per step, borrowed together instead of through
/// four separate `RefCell`s.
struct Hooks {
    rng: SimRng,
    /// Trace sink; disabled (no-op) unless installed via [`Sim::install_tracer`].
    tracer: Tracer,
    /// Runtime determinism sanitizer; active by default in debug builds.
    sanitizer: Sanitizer,
    /// Fault-injection plan; disabled (injects nothing) unless installed
    /// via [`Sim::install_faults`].
    faults: FaultPlan,
    /// Metric registry; disabled (all handles no-op) unless installed via
    /// [`Sim::install_metrics`].
    metrics: MetricRegistry,
}

/// The executor's own always-on event counters. Plain `Cell`s — an
/// increment costs less than the poll it annotates — flushed into the
/// metric registry (when one is installed) as each run returns, with
/// absolute `set` semantics so repeated `run_until` calls stay idempotent.
#[derive(Default)]
struct ExecStats {
    /// Task polls performed.
    polls: Cell<u64>,
    /// Virtual-clock advances to a timer deadline.
    advances: Cell<u64>,
    /// Timers fired at their deadline.
    timer_fires: Cell<u64>,
    /// Timers registered.
    timer_inserts: Cell<u64>,
    /// Timers cancelled before firing (race losers, dropped sleeps).
    timer_cancels: Cell<u64>,
    /// Tasks spawned.
    spawned: Cell<u64>,
    /// Tasks run to completion.
    completed: Cell<u64>,
    /// Peak concurrently-live tasks (slab occupancy high-water mark).
    peak_live: Cell<u64>,
}

struct SimState {
    now: Cell<SimTime>,
    tasks: RefCell<Slab<Task>>,
    ready: RefCell<VecDeque<TaskId>>,
    /// Pending sleeps; the payload is the task whose poll last polled the
    /// sleep, i.e. the one to make ready when it falls due.
    timers: RefCell<TimerHeap<TaskId>>,
    /// The task being polled, `None` between polls.
    current: Cell<Option<TaskId>>,
    hooks: RefCell<Hooks>,
    wake_queue: Arc<WakeQueue>,
    /// Count of tasks that have been spawned but not yet completed.
    live_tasks: Cell<usize>,
    /// Self-profiling counters (always on; flushed to the registry).
    stats: ExecStats,
    /// RNG seed this simulation was created with.
    seed: u64,
}

/// The simulation: owns the virtual clock, task set, and timer wheel.
///
/// Typical structure of an experiment:
///
/// ```
/// use skyrise_sim::{Sim, SimDuration};
///
/// let mut sim = Sim::new(42);
/// let ctx = sim.ctx();
/// let handle = sim.spawn(async move {
///     ctx.sleep(SimDuration::from_secs(5)).await;
///     ctx.now()
/// });
/// sim.run();
/// assert_eq!(handle.try_take().unwrap().as_secs_f64(), 5.0);
/// ```
pub struct Sim {
    state: Rc<SimState>,
}

/// A cloneable handle onto the simulation, usable from inside tasks.
#[derive(Clone)]
pub struct SimCtx {
    state: Weak<SimState>,
}

impl Sim {
    /// Create a simulation with the given RNG seed. Identical seeds yield
    /// identical runs.
    pub fn new(seed: u64) -> Self {
        Sim {
            state: Rc::new(SimState {
                now: Cell::new(SimTime::ZERO),
                tasks: RefCell::new(Slab::new()),
                ready: RefCell::new(VecDeque::new()),
                timers: RefCell::new(TimerHeap::new()),
                current: Cell::new(None),
                hooks: RefCell::new(Hooks {
                    rng: SimRng::new(seed),
                    tracer: Tracer::disabled(),
                    // Debug builds (what `cargo test` runs) sanitize every
                    // simulation; release experiment binaries opt in via
                    // [`Sim::enable_sanitizer`].
                    sanitizer: if cfg!(debug_assertions) {
                        Sanitizer::new()
                    } else {
                        Sanitizer::disabled()
                    },
                    faults: FaultPlan::disabled(),
                    metrics: MetricRegistry::disabled(),
                }),
                wake_queue: Arc::new(WakeQueue::default()),
                live_tasks: Cell::new(0),
                stats: ExecStats::default(),
                seed,
            }),
        }
    }

    /// Enable tracing for this simulation: installs an enabled [`Tracer`]
    /// (run id = seed) that all components reach via [`SimCtx::tracer`],
    /// and returns a handle that outlives the simulation for export.
    pub fn install_tracer(&self) -> Tracer {
        let tracer = Tracer::new(self.state.seed);
        self.state.hooks.borrow_mut().tracer = tracer.clone();
        tracer
    }

    /// The tracer currently installed (disabled by default).
    pub fn tracer(&self) -> Tracer {
        self.state.hooks.borrow().tracer.clone()
    }

    /// Enable the runtime determinism sanitizer (fresh state) and return a
    /// handle that outlives the simulation, for post-run [`report`]s and
    /// cross-run digest comparison.
    ///
    /// [`report`]: Sanitizer::report
    pub fn enable_sanitizer(&self) -> Sanitizer {
        let san = Sanitizer::new();
        self.state.hooks.borrow_mut().sanitizer = san.clone();
        san
    }

    /// The sanitizer currently installed.
    pub fn sanitizer(&self) -> Sanitizer {
        self.state.hooks.borrow().sanitizer.clone()
    }

    /// Install a fault-injection plan (seeded from this simulation's seed,
    /// on a salted private RNG stream) and return a handle that outlives
    /// the simulation for post-run [`FaultPlan::stats`]. Components reach
    /// the plan via [`SimCtx::faults`]; without this call the plan is
    /// disabled and injects nothing.
    pub fn install_faults(&self, config: FaultConfig) -> FaultPlan {
        let plan = FaultPlan::new(self.state.seed, config);
        self.state.hooks.borrow_mut().faults = plan.clone();
        plan
    }

    /// The fault plan currently installed (disabled by default).
    pub fn faults(&self) -> FaultPlan {
        self.state.hooks.borrow().faults.clone()
    }

    /// Install a metric registry and return a handle that outlives the
    /// simulation for snapshot/export. Components reach the registry via
    /// [`SimCtx::metrics`] and cache their handles at construction;
    /// without this call the registry is disabled and every metric
    /// operation is a no-op.
    pub fn install_metrics(&self) -> MetricRegistry {
        let registry = MetricRegistry::new();
        self.state.hooks.borrow_mut().metrics = registry.clone();
        registry
    }

    /// The metric registry currently installed (disabled by default).
    pub fn metrics(&self) -> MetricRegistry {
        self.state.hooks.borrow().metrics.clone()
    }

    /// A handle for spawning and sleeping from inside tasks.
    pub fn ctx(&self) -> SimCtx {
        SimCtx {
            state: Rc::downgrade(&self.state),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.state.now.get()
    }

    /// Spawn a root task. See [`SimCtx::spawn`].
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        self.ctx().spawn(fut)
    }

    /// Run until no task is runnable and no timer is pending.
    ///
    /// Returns the virtual time at quiescence. Panics if tasks remain alive
    /// but blocked forever (deadlock) — this is a bug in the simulation
    /// model, and failing loudly beats hanging — and if the sanitizer's run
    /// ledger does not balance ([`Sanitizer::check_ledger`]).
    pub fn run(&mut self) -> SimTime {
        self.run_until(SimTime::MAX)
    }

    /// Run until quiescence or until the clock would pass `limit`,
    /// whichever comes first. Timers beyond `limit` stay pending.
    pub fn run_until(&mut self, limit: SimTime) -> SimTime {
        // The sanitizer handle shares its state with the installed one, so
        // one clone up front covers the whole run — the hooks cell is not
        // re-borrowed per step.
        let sanitizer = self.state.hooks.borrow().sanitizer.clone();
        loop {
            self.drain_ready(&sanitizer);
            let stats = &self.state.stats;
            // No runnable tasks: advance to the next timer. Cancelled
            // timers were removed eagerly, so the head is always live.
            let next = self.state.timers.borrow().peek_deadline();
            match next {
                Some(deadline) if deadline <= limit => {
                    sanitizer.on_advance(self.state.now.get(), deadline);
                    self.state.now.set(deadline);
                    stats.advances.set(stats.advances.get() + 1);
                    // Fire every timer at this deadline, in registration
                    // order (the heap breaks deadline ties by armed-at
                    // instant, then insertion seq). `drain_ready` returned,
                    // so `ready` and the wake queue are both empty and
                    // pushing here is the order a trip through the wake
                    // queue would give — a task with two timers due now is
                    // queued, and polled, twice.
                    let mut timers = self.state.timers.borrow_mut();
                    let mut ready = self.state.ready.borrow_mut();
                    while let Some(task) = timers.pop_due(deadline) {
                        stats.timer_fires.set(stats.timer_fires.get() + 1);
                        ready.push_back(task);
                    }
                }
                Some(_) => {
                    // Next event beyond limit.
                    self.flush_metrics();
                    return self.state.now.get();
                }
                None => {
                    let live = self.state.live_tasks.get();
                    assert!(
                        live == 0,
                        "simulation deadlock: {live} task(s) blocked with no pending timer"
                    );
                    sanitizer.check_ledger();
                    self.flush_metrics();
                    return self.state.now.get();
                }
            }
        }
    }

    /// Flush the executor's self-profiling counters into the registry.
    /// Absolute `set`s: calling after every `run_until` leaves the same
    /// final values as calling once at the end.
    fn flush_metrics(&self) {
        let metrics = self.state.hooks.borrow().metrics.clone();
        if !metrics.enabled() {
            return;
        }
        let s = &self.state.stats;
        metrics.counter("sim.executor.polls").set(s.polls.get());
        metrics
            .counter("sim.executor.advances")
            .set(s.advances.get());
        metrics
            .counter("sim.executor.tasks_spawned")
            .set(s.spawned.get());
        metrics
            .counter("sim.executor.tasks_completed")
            .set(s.completed.get());
        metrics
            .counter("sim.timer.inserts")
            .set(s.timer_inserts.get());
        metrics.counter("sim.timer.fires").set(s.timer_fires.get());
        metrics
            .counter("sim.timer.cancels")
            .set(s.timer_cancels.get());
        metrics
            .gauge("sim.executor.peak_live_tasks")
            .set(s.peak_live.get() as f64);
    }

    /// Poll every woken task until the ready queue is empty.
    fn drain_ready(&mut self, sanitizer: &Sanitizer) {
        let state = &*self.state;
        let queue = &*state.wake_queue;
        loop {
            // Collect the wakes of the poll before (or, first time round,
            // of whoever held a waker outside `run_until`). They follow
            // what that poll spawned, which went onto `ready` directly.
            if queue.pending.load(Ordering::Acquire) {
                let mut woken = queue.woken.lock().expect("wake queue poisoned");
                queue.pending.store(false, Ordering::Relaxed);
                state.ready.borrow_mut().extend(woken.drain(..));
            }
            let Some(id) = state.ready.borrow_mut().pop_front() else {
                return;
            };
            // Take the future out of its slot for the poll (a task may
            // spawn siblings mid-poll, which re-borrows the slab). The
            // generation check makes wakes for completed tasks miss.
            let now = state.now.get();
            let (mut fut, waker, last_poll) = {
                let mut tasks = state.tasks.borrow_mut();
                let Some(task) = tasks.get_mut(id) else {
                    continue; // task already completed; stale wake
                };
                let Some(fut) = task.fut.take() else {
                    continue; // duplicate wake already being handled
                };
                let waker = task.waker.take().unwrap_or_else(|| {
                    let queue = Arc::clone(&state.wake_queue);
                    Waker::from(Arc::new(TaskWaker { id, queue }))
                });
                (fut, waker, std::mem::replace(&mut task.last_poll, now))
            };
            sanitizer.on_poll(id, last_poll, now);
            let stats = &state.stats;
            stats.polls.set(stats.polls.get() + 1);
            state.current.set(Some(id));
            let polled = fut.as_mut().poll(&mut Context::from_waker(&waker));
            state.current.set(None);
            match polled {
                Poll::Ready(()) => {
                    state.tasks.borrow_mut().remove(id);
                    state.live_tasks.set(state.live_tasks.get() - 1);
                    stats.completed.set(stats.completed.get() + 1);
                    sanitizer.on_complete(id);
                }
                Poll::Pending => {
                    if let Some(task) = state.tasks.borrow_mut().get_mut(id) {
                        task.fut = Some(fut);
                        task.waker = Some(waker);
                    }
                }
            }
        }
    }
}

impl SimCtx {
    fn state(&self) -> Rc<SimState> {
        self.state
            .upgrade()
            .expect("SimCtx used after simulation was dropped")
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.state().now.get()
    }

    /// Current virtual time, or `None` if the simulation was dropped.
    /// Used by trace span guards, which may be dropped after teardown.
    pub(crate) fn try_now(&self) -> Option<SimTime> {
        self.state.upgrade().map(|s| s.now.get())
    }

    /// The simulation's tracer (disabled, i.e. no-op, unless a tracer was
    /// installed via [`Sim::install_tracer`]). Cheap to clone and call.
    pub fn tracer(&self) -> Tracer {
        match self.state.upgrade() {
            Some(s) => s.hooks.borrow().tracer.clone(),
            None => Tracer::disabled(),
        }
    }

    /// The simulation's sanitizer (no-op when disabled). Model crates use
    /// this to assert domain invariants — token conservation, meter
    /// cross-checks — without holding state of their own.
    pub fn sanitizer(&self) -> Sanitizer {
        match self.state.upgrade() {
            Some(s) => s.hooks.borrow().sanitizer.clone(),
            None => Sanitizer::disabled(),
        }
    }

    /// The simulation's fault-injection plan (disabled, i.e. injecting
    /// nothing, unless installed via [`Sim::install_faults`]). Cheap to
    /// clone and query.
    pub fn faults(&self) -> FaultPlan {
        match self.state.upgrade() {
            Some(s) => s.hooks.borrow().faults.clone(),
            None => FaultPlan::disabled(),
        }
    }

    /// The simulation's metric registry (disabled, i.e. handing out no-op
    /// handles, unless installed via [`Sim::install_metrics`]). Subsystems
    /// call this once at construction and cache the handles they need.
    pub fn metrics(&self) -> MetricRegistry {
        match self.state.upgrade() {
            Some(s) => s.hooks.borrow().metrics.clone(),
            None => MetricRegistry::disabled(),
        }
    }

    /// Spawn a task onto the simulation; returns a handle that resolves to
    /// the task's output.
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let state = self.state();
        let live = state.live_tasks.get() + 1;
        state.live_tasks.set(live);
        let stats = &state.stats;
        stats.spawned.set(stats.spawned.get() + 1);
        if live as u64 > stats.peak_live.get() {
            stats.peak_live.set(live as u64);
        }

        let slot: Rc<RefCell<JoinSlot<F::Output>>> = Rc::new(RefCell::new(JoinSlot::default()));
        let slot2 = Rc::clone(&slot);
        let wrapped: LocalBoxFuture = Box::pin(async move {
            let out = fut.await;
            let mut s = slot2.borrow_mut();
            s.value = Some(out);
            if let Some(w) = s.waiter.take() {
                w.wake();
            }
        });
        let id = state.tasks.borrow_mut().insert(Task {
            fut: Some(wrapped),
            waker: None,
            last_poll: SimTime::ZERO,
        });
        state.ready.borrow_mut().push_back(id);
        JoinHandle { slot }
    }

    /// Sleep for a span of virtual time.
    pub fn sleep(&self, d: SimDuration) -> Sleep {
        self.sleep_until(self.now().saturating_add(d))
    }

    /// Sleep until an absolute virtual instant (no-op if already past).
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep {
            ctx: self.clone(),
            deadline,
            armed_at: None,
            timer: None,
        }
    }

    /// Sleep for `k` back-to-back slices of length `slice` with one timer.
    ///
    /// Equivalent to awaiting `sleep(slice)` `k` times in a row when nothing
    /// happens in the task between them: the wake-up is at `now + k * slice`
    /// and, among timers with that same deadline, it fires where the *last*
    /// of those `k` sleeps would have — after everything armed before
    /// `deadline - slice`, before everything armed later. `k` of 0 or 1 is
    /// exactly `sleep(slice)`.
    ///
    /// Residual: against another timer armed at exactly `deadline - slice`
    /// for exactly `deadline`, the chain's last link would have sorted by
    /// the poll order at that instant, which a single timer cannot know;
    /// this one sorts first.
    pub fn sleep_slices(&self, slice: SimDuration, k: u64) -> Sleep {
        let span = SimDuration::from_nanos(slice.as_nanos().saturating_mul(k.max(1)));
        let deadline = self.now().saturating_add(span);
        Sleep {
            ctx: self.clone(),
            deadline,
            armed_at: Some(deadline - slice),
            timer: None,
        }
    }

    /// Yield once, letting every other ready task run before resuming.
    pub fn yield_now(&self) -> YieldNow {
        YieldNow { yielded: false }
    }

    /// Access the simulation RNG. All model randomness must flow through
    /// here to preserve determinism.
    pub fn with_rng<T>(&self, f: impl FnOnce(&mut SimRng) -> T) -> T {
        let state = self.state();
        let mut hooks = state.hooks.borrow_mut();
        f(&mut hooks.rng)
    }
}

impl SimState {
    /// Cancel a pending timer; a stale key (fired, cancelled) is a no-op.
    fn cancel_timer(&self, key: TimerKey) {
        if self.timers.borrow_mut().cancel(key).is_some() {
            let stats = &self.stats;
            stats.timer_cancels.set(stats.timer_cancels.get() + 1);
        }
    }
}

struct JoinSlot<T> {
    value: Option<T>,
    waiter: Option<Waker>,
}

impl<T> Default for JoinSlot<T> {
    fn default() -> Self {
        JoinSlot {
            value: None,
            waiter: None,
        }
    }
}

/// Handle resolving to a spawned task's output. Awaiting it yields the
/// value; [`JoinHandle::try_take`] retrieves it after the simulation ran.
pub struct JoinHandle<T> {
    slot: Rc<RefCell<JoinSlot<T>>>,
}

impl<T> JoinHandle<T> {
    /// Take the task output if the task has completed.
    pub fn try_take(&self) -> Option<T> {
        self.slot.borrow_mut().value.take()
    }

    /// True once the task has completed (and the value was not taken yet).
    pub fn is_finished(&self) -> bool {
        self.slot.borrow().value.is_some()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut slot = self.slot.borrow_mut();
        if let Some(v) = slot.value.take() {
            Poll::Ready(v)
        } else {
            slot.waiter = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// Future returned by [`SimCtx::sleep`], [`SimCtx::sleep_until`] and
/// [`SimCtx::sleep_slices`].
///
/// Holds a [`TimerKey`] into the cancellation-aware timer heap: dropping
/// or completing the sleep removes the entry immediately, so abandoned
/// sleeps (the losing arm of a [`race`], a speculative re-execution that
/// was beaten) cost the scheduler nothing.
pub struct Sleep {
    ctx: SimCtx,
    deadline: SimTime,
    /// Tie-break instant among equal deadlines; `None` = when registered.
    armed_at: Option<SimTime>,
    timer: Option<TimerKey>,
}

impl Future for Sleep {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let state = self.ctx.state();
        let now = state.now.get();
        if now >= self.deadline {
            if let Some(key) = self.timer.take() {
                state.cancel_timer(key); // no-op if it just fired
            }
            return Poll::Ready(());
        }
        // The timer wakes the task that is polling, by id; the `Waker` in
        // `_cx` is not consulted. Every waker in this tree is a task's own,
        // so the two agree whenever there is a polling task at all.
        let task = state.current.get().expect(
            "Sleep polled outside a simulation task: only futures spawned on \
             its Sim may await it, there is no task for its timer to wake",
        );
        // Spurious wakes and migration across combinators and tasks all
        // stay correct: re-point the pending entry at this task in place, or
        // register anew when the entry is gone (first poll, or fired while
        // the task was woken by something else).
        let mut timers = state.timers.borrow_mut();
        if let Some(key) = self.timer {
            if timers.update_payload(key, task) {
                return Poll::Pending;
            }
        }
        let stats = &state.stats;
        stats.timer_inserts.set(stats.timer_inserts.get() + 1);
        // `armed_at` of `None` is an ordinary sleep, armed as it registers.
        let armed_at = self.armed_at.unwrap_or(now);
        self.timer = Some(timers.insert(self.deadline, armed_at, task));
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if let Some(key) = self.timer.take() {
            // The simulation may be gone (a sleep held past teardown).
            if let Some(state) = self.ctx.state.upgrade() {
                state.cancel_timer(key);
            }
        }
    }
}

/// Future returned by [`SimCtx::yield_now`]: pending exactly once.
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

/// Result of [`race`]: which future finished first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Either<A, B> {
    /// The first future won.
    Left(A),
    /// The second future won.
    Right(B),
}

/// Run two futures concurrently; resolve with the first to finish and drop
/// the loser. Ties (both ready on the same poll) go to the left.
pub fn race<A: Future, B: Future>(a: A, b: B) -> Race<A, B> {
    Race { a, b }
}

/// Future returned by [`race`].
pub struct Race<A, B> {
    a: A,
    b: B,
}

impl<A: Future, B: Future> Future for Race<A, B> {
    type Output = Either<A::Output, B::Output>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: `a` and `b` are structurally pinned — never moved out of
        // `self`, which is pinned for our whole lifetime.
        let this = unsafe { self.get_unchecked_mut() };
        let a = unsafe { Pin::new_unchecked(&mut this.a) };
        if let Poll::Ready(v) = a.poll(cx) {
            return Poll::Ready(Either::Left(v));
        }
        let b = unsafe { Pin::new_unchecked(&mut this.b) };
        if let Poll::Ready(v) = b.poll(cx) {
            return Poll::Ready(Either::Right(v));
        }
        Poll::Pending
    }
}

/// Await all handles, collecting outputs in order.
pub async fn join_all<T>(handles: Vec<JoinHandle<T>>) -> Vec<T> {
    let mut out = Vec::with_capacity(handles.len());
    for h in handles {
        out.push(h.await);
    }
    out
}

/// Await the first of `handles` to complete; the winner is removed from
/// the vector and `(index, value)` returned (index as of removal time).
/// Ties go to the lowest index. The remaining handles are untouched — their
/// tasks keep running. Panics when awaited with an empty vector.
pub fn first_completed<T>(handles: &mut Vec<JoinHandle<T>>) -> FirstCompleted<'_, T> {
    FirstCompleted { handles }
}

/// Future returned by [`first_completed`].
pub struct FirstCompleted<'a, T> {
    handles: &'a mut Vec<JoinHandle<T>>,
}

impl<T> Future for FirstCompleted<'_, T> {
    type Output = (usize, T);
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<(usize, T)> {
        // Unpin: the struct holds only a mutable reference.
        let this = self.get_mut();
        assert!(
            !this.handles.is_empty(),
            "first_completed awaited with no handles"
        );
        let won = (0..this.handles.len()).find(|&i| this.handles[i].slot.borrow().value.is_some());
        if let Some(i) = won {
            let h = this.handles.remove(i);
            let v = h
                .slot
                .borrow_mut()
                .value
                .take()
                .expect("winner had a value");
            return Poll::Ready((i, v));
        }
        for h in this.handles.iter() {
            h.slot.borrow_mut().waiter = Some(cx.waker().clone());
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_starts_at_zero_and_advances_by_sleep() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            assert_eq!(ctx.now(), SimTime::ZERO);
            ctx.sleep(SimDuration::from_millis(100)).await;
            ctx.now()
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), SimTime::from_nanos(100_000_000));
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "deliberately measures real time")]
    fn no_wall_clock_cost_for_long_sleeps() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        sim.spawn(async move {
            ctx.sleep(SimDuration::from_days(365)).await;
        });
        let t0 = std::time::Instant::now();
        let end = sim.run();
        assert_eq!(end, SimTime::from_nanos(365 * 86_400 * 1_000_000_000));
        assert!(t0.elapsed().as_millis() < 100);
    }

    #[test]
    fn concurrent_tasks_interleave_in_time_order() {
        let mut sim = Sim::new(1);
        let log: Rc<RefCell<Vec<(u64, &str)>>> = Rc::new(RefCell::new(Vec::new()));
        for (name, delay) in [("b", 20u64), ("a", 10), ("c", 30)] {
            let ctx = sim.ctx();
            let log = Rc::clone(&log);
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_millis(delay)).await;
                log.borrow_mut().push((ctx.now().as_nanos(), name));
            });
        }
        sim.run();
        let log = log.borrow();
        let names: Vec<&str> = log.iter().map(|&(_, n)| n).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_deadlines_fire_in_registration_order() {
        let mut sim = Sim::new(1);
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        for i in 0..5u32 {
            let ctx = sim.ctx();
            let log = Rc::clone(&log);
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_millis(7)).await;
                log.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
    }

    /// One task sleeps `k` slices — as `k` chained `sleep`s or as one
    /// `sleep_slices` — among unrelated tasks whose timers share every
    /// deadline of the chain to the nanosecond: armed before the chain
    /// starts (`early`), between its links (`between`), and after the link
    /// they tie with (`late`). Each wake-up logs the clock and an RNG draw,
    /// so a flipped firing order shows. Returns the log and the timer count.
    fn slices_among_unrelated_timers(k: u64, fused: bool) -> (Vec<(u64, String, u64)>, u64) {
        const SLICE: SimDuration = SimDuration::from_millis(10);
        let start = SimTime::ZERO + SimDuration::from_millis(5);
        let grid = move |i: u64| start + SLICE * i;
        let mut sim = Sim::new(11);
        let reg = sim.install_metrics();
        let log: Rc<RefCell<Vec<(u64, String, u64)>>> = Rc::new(RefCell::new(Vec::new()));
        // (name, instant to arm at, deadline)
        let mut sleepers = Vec::new();
        for i in 0..=k {
            sleepers.push((format!("early{i}"), SimTime::ZERO, grid(i)));
        }
        for i in 1..=k {
            let armed = grid(i) - SimDuration::from_millis(3);
            sleepers.push((format!("late{i}"), armed, grid(i)));
        }
        if k > 1 {
            let armed = grid(k - 1) - SimDuration::from_millis(5);
            sleepers.push(("between".to_string(), armed, grid(k)));
        }
        sleepers.push(("chain".to_string(), start, grid(k)));
        for (name, arm_at, deadline) in sleepers {
            let (ctx, log) = (sim.ctx(), Rc::clone(&log));
            sim.spawn(async move {
                ctx.sleep_until(arm_at).await;
                if name != "chain" {
                    ctx.sleep_until(deadline).await;
                } else if fused {
                    ctx.sleep_slices(SLICE, k).await;
                } else {
                    for _ in 0..k {
                        ctx.sleep(SLICE).await;
                    }
                }
                let draw = ctx.with_rng(|r| r.gen_range_u64(0, u64::MAX));
                log.borrow_mut().push((ctx.now().as_nanos(), name, draw));
            });
        }
        sim.run();
        let inserts = reg.snapshot().counters["sim.timer.inserts"];
        let log = log.borrow().clone();
        (log, inserts)
    }

    #[test]
    fn sleep_slices_fires_where_the_last_chained_sleep_would() {
        for k in [1, 2, 4, 9] {
            let (chained, chained_inserts) = slices_among_unrelated_timers(k, false);
            let (fused, fused_inserts) = slices_among_unrelated_timers(k, true);
            assert_eq!(chained, fused, "k = {k}");
            assert_eq!(chained_inserts - fused_inserts, k - 1, "one timer, not {k}");
            // At the shared final deadline: everything armed before the last
            // link, in registration order; then the chain; then the rest.
            let end = chained.last().expect("log").0;
            let at_end: Vec<&str> = chained
                .iter()
                .filter(|e| e.0 == end)
                .map(|e| e.1.as_str())
                .collect();
            let (early, late) = (format!("early{k}"), format!("late{k}"));
            if k > 1 {
                assert_eq!(at_end, [early.as_str(), "between", "chain", late.as_str()]);
            } else {
                assert_eq!(at_end, [early.as_str(), "chain", late.as_str()]);
            }
        }
    }

    #[test]
    fn nested_spawn_and_join() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let inner = ctx.spawn({
                let ctx = ctx.clone();
                async move {
                    ctx.sleep(SimDuration::from_secs(1)).await;
                    21u32
                }
            });
            inner.await * 2
        });
        sim.run();
        assert_eq!(h.try_take(), Some(42));
    }

    #[test]
    fn join_all_collects_in_order() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let handles: Vec<_> = (0..10u64)
                .map(|i| {
                    let ctx = ctx.clone();
                    ctx.clone().spawn(async move {
                        // Reverse delays: later-indexed tasks finish first.
                        ctx.sleep(SimDuration::from_millis(10 - i)).await;
                        i
                    })
                })
                .collect();
            join_all(handles).await
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn run_until_stops_at_limit() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            ctx.sleep(SimDuration::from_secs(100)).await;
        });
        let t = sim.run_until(SimTime::from_nanos(5_000_000_000));
        assert!(t.as_nanos() <= 5_000_000_000);
        assert!(!h.is_finished());
        sim.run();
        assert!(h.is_finished());
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_detection() {
        let mut sim = Sim::new(1);
        sim.spawn(async move {
            // Block forever on a permit nobody releases.
            let _never = crate::sync::Semaphore::new(0).acquire().await;
        });
        sim.run();
    }

    #[test]
    fn race_picks_earlier_future() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let slow = ctx.sleep(SimDuration::from_secs(10));
            let fast = ctx.sleep(SimDuration::from_millis(5));
            match race(slow, fast).await {
                Either::Left(()) => "slow",
                Either::Right(()) => "fast",
            }
        });
        sim.run();
        assert_eq!(h.try_take(), Some("fast"));
    }

    #[test]
    fn race_loser_is_cancelled() {
        // After the race resolves, the losing sleep must not keep the
        // simulation alive: total runtime stays at the winner's deadline.
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        sim.spawn(async move {
            let _ = race(
                ctx.sleep(SimDuration::from_secs(100)),
                ctx.sleep(SimDuration::from_millis(1)),
            )
            .await;
        });
        let end = sim.run();
        assert!(end.as_secs_f64() < 1.0, "end {end}");
    }

    #[test]
    fn cancelled_sleep_leaves_no_timer_entry() {
        // The loser of a race is removed from the timer heap immediately —
        // not tombstoned until its deadline would have arrived.
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        sim.spawn(async move {
            let _ = race(
                ctx.sleep(SimDuration::from_secs(100)),
                ctx.sleep(SimDuration::from_millis(1)),
            )
            .await;
        });
        sim.run();
        assert!(
            sim.state.timers.borrow().is_empty(),
            "cancelled sleep left an entry in the timer heap"
        );
    }

    /// A task body that appends `label` to `log` on every poll of the task:
    /// the poll order of a scenario, as data.
    struct Logged {
        label: &'static str,
        log: Rc<RefCell<Vec<&'static str>>>,
        body: LocalBoxFuture,
    }

    impl Future for Logged {
        type Output = ();
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            self.log.borrow_mut().push(self.label);
            self.body.as_mut().poll(cx)
        }
    }

    #[test]
    fn two_timers_due_at_one_instant_poll_the_task_twice() {
        let mut sim = Sim::new(1);
        let reg = sim.install_metrics();
        let ctx = sim.ctx();
        sim.spawn(async move {
            // Both arms register; at 10 ms both fire and the task is queued
            // twice. The first poll settles the race and arms the next
            // sleep, the second finds that sleep pending and re-points it.
            let arm = || ctx.sleep(SimDuration::from_millis(10));
            let _ = race(arm(), arm()).await;
            ctx.sleep(SimDuration::from_millis(5)).await;
        });
        assert_eq!(sim.run(), SimTime::ZERO + SimDuration::from_millis(15));
        let snap = reg.snapshot();
        // t = 0, twice at 10 ms, 15 ms.
        assert_eq!(snap.counters["sim.executor.polls"], 4);
        assert_eq!(snap.counters["sim.timer.fires"], 3);
        assert_eq!(snap.counters["sim.timer.inserts"], 3);
    }

    #[test]
    fn sleep_moved_to_another_task_wakes_that_task() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let parked: Rc<RefCell<Option<Sleep>>> = Rc::new(RefCell::new(None));
        // The first task polls the sleep once, parks it and stays alive on a
        // sleep of its own; the timer must not go on pointing at it.
        let (ctx1, parked1) = (ctx.clone(), Rc::clone(&parked));
        sim.spawn(async move {
            let mut sleep = ctx1.sleep(SimDuration::from_millis(10));
            std::future::poll_fn(|cx| {
                assert!(Pin::new(&mut sleep).poll(cx).is_pending());
                Poll::Ready(())
            })
            .await;
            *parked1.borrow_mut() = Some(sleep);
            ctx1.sleep(SimDuration::from_secs(1)).await;
        });
        let woke_at = sim.spawn(async move {
            ctx.sleep(SimDuration::from_millis(1)).await;
            let sleep = parked
                .borrow_mut()
                .take()
                .expect("parked by the first task");
            sleep.await;
            ctx.now()
        });
        sim.run();
        let woke_at = woke_at.try_take().expect("second task woke");
        assert_eq!(woke_at, SimTime::ZERO + SimDuration::from_millis(10));
    }

    #[test]
    fn timers_fire_by_rank_and_waker_wakes_queue_behind_the_ready() {
        // Five timers share the deadline of 10 ms: `a` and `e` armed at 0 in
        // that order, `b` at 2 ms, `d` at 4 ms, and `c` — registered at 0,
        // before `b` and `d`, but as the last 5 ms slice of two. At 10 ms
        // `a` finishes, which wakes `join_a` through a `Waker`; `b` releases
        // the semaphore `sem_waiter` queues on and then spawns `child`.
        let ms = SimDuration::from_millis;
        let at = |n| SimTime::ZERO + SimDuration::from_millis(n);
        let mut sim = Sim::new(1);
        let log: Rc<RefCell<Vec<&'static str>>> = Rc::new(RefCell::new(Vec::new()));
        let sem = crate::sync::Semaphore::new(0);
        let spawn = |ctx: &SimCtx, label, body: LocalBoxFuture| {
            let log = Rc::clone(&log);
            ctx.spawn(Logged { label, log, body })
        };
        let ctx = sim.ctx();
        let c = ctx.clone();
        let a = spawn(
            &ctx,
            "a",
            Box::pin(async move { c.sleep_until(at(10)).await }),
        );
        let c = ctx.clone();
        spawn(
            &ctx,
            "e",
            Box::pin(async move { c.sleep_until(at(10)).await }),
        );
        let c = ctx.clone();
        spawn(
            &ctx,
            "c",
            Box::pin(async move { c.sleep_slices(ms(5), 2).await }),
        );
        let (c, sem_b, log_b) = (ctx.clone(), sem.clone(), Rc::clone(&log));
        spawn(
            &ctx,
            "b",
            Box::pin(async move {
                c.sleep(ms(2)).await;
                c.sleep_until(at(10)).await;
                sem_b.release(1);
                let (label, log, body) = ("child", log_b, Box::pin(async {}));
                c.spawn(Logged { label, log, body });
            }),
        );
        let c = ctx.clone();
        spawn(
            &ctx,
            "d",
            Box::pin(async move {
                c.sleep(ms(4)).await;
                c.sleep_until(at(10)).await;
            }),
        );
        spawn(&ctx, "join_a", Box::pin(a));
        spawn(
            &ctx,
            "sem_waiter",
            Box::pin(async move { drop(sem.acquire().await) }),
        );
        sim.run();
        // Recorded at commit 5ec9551, where every timer held a `Waker` and
        // fired through the wake queue.
        let recorded = [
            // t = 0: spawn order.
            "a",
            "e",
            "c",
            "b",
            "d",
            "join_a",
            "sem_waiter",
            // 2 ms, 4 ms.
            "b",
            "d",
            // 10 ms: timers by (deadline, armed_at, seq); then `join_a`, woken
            // while `a` ran; then what `b` spawned; then what `b` woke.
            "a",
            "e",
            "b",
            "d",
            "c",
            "join_a",
            "child",
            "sem_waiter",
        ];
        assert_eq!(*log.borrow(), recorded);
    }

    #[test]
    #[should_panic(expected = "Sleep polled outside a simulation task")]
    fn sleep_polled_outside_a_task_panics() {
        let sim = Sim::new(1);
        let mut sleep = sim.ctx().sleep(SimDuration::from_millis(1));
        let _ = Pin::new(&mut sleep).poll(&mut Context::from_waker(Waker::noop()));
    }

    #[test]
    #[should_panic(expected = "polled at t=50ns after being polled at t=100ns")]
    fn per_task_clock_regression_panics_through_the_executor() {
        let mut sim = Sim::new(1);
        sim.enable_sanitizer();
        let (ctx, gate) = (sim.ctx(), crate::sync::Semaphore::new(0));
        let opened = gate.acquire();
        sim.spawn(async move {
            ctx.sleep(SimDuration::from_nanos(100)).await;
            race(opened, ctx.sleep(SimDuration::from_secs(1))).await;
        });
        // Polled at 100 ns, the task waits on the gate (the timeout keeps
        // the run from calling it a deadlock). Rewind, then wake it.
        sim.run_until(SimTime::from_nanos(100));
        sim.state.now.set(SimTime::from_nanos(50));
        gate.release(1);
        sim.run();
    }

    #[test]
    fn reused_task_slot_starts_with_a_fresh_clock() {
        let mut sim = Sim::new(1);
        sim.enable_sanitizer();
        let ctx = sim.ctx();
        sim.spawn(async move { ctx.sleep(SimDuration::from_nanos(100)).await });
        sim.run();
        // The finished task was last polled at 100 ns and its slot is free.
        // Only a task is held to its past, not the slot the next one gets.
        sim.state.now.set(SimTime::from_nanos(50));
        let reused = sim.spawn(async {});
        sim.run();
        assert!(reused.is_finished());
    }

    #[test]
    fn task_ids_are_not_resurrected_by_slot_reuse() {
        // A completed task's slot is reused by a later spawn; the stale
        // wake for the finished task must miss (generation check), and the
        // new task must still run.
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let first = ctx.spawn(async { 1u32 });
            let v1 = first.await;
            // The first task's slot is free now; this spawn reuses it.
            let second = ctx.spawn(async { 2u32 });
            v1 + second.await
        });
        sim.run();
        assert_eq!(h.try_take(), Some(3));
    }

    #[test]
    fn first_completed_returns_earliest_and_leaves_rest_running() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let mut handles: Vec<_> = [30u64, 10, 20]
                .iter()
                .map(|&d| {
                    let ctx = ctx.clone();
                    ctx.clone().spawn(async move {
                        ctx.sleep(SimDuration::from_millis(d)).await;
                        d
                    })
                })
                .collect();
            let (idx, val) = first_completed(&mut handles).await;
            assert_eq!((idx, val), (1, 10));
            assert_eq!(handles.len(), 2);
            let (idx2, val2) = first_completed(&mut handles).await;
            assert_eq!((idx2, val2), (1, 20));
            // The slowest task keeps running even if we drop its handle.
            drop(handles);
            ctx.now()
        });
        let end = sim.run();
        assert_eq!(h.try_take().unwrap(), SimTime::from_nanos(20_000_000));
        // Quiescence waits for the abandoned 30ms task.
        assert_eq!(end, SimTime::from_nanos(30_000_000));
    }

    #[test]
    fn faults_disabled_by_default_and_installable() {
        let sim = Sim::new(5);
        let ctx = sim.ctx();
        assert!(!ctx.faults().enabled());
        let plan = sim.install_faults(crate::faults::FaultConfig {
            invoke_transient_prob: 1.0,
            ..crate::faults::FaultConfig::default()
        });
        assert!(ctx.faults().enabled());
        assert!(ctx.faults().sample_invoke_transient());
        // The outliving handle shares counters with the installed plan.
        assert_eq!(plan.stats().transients, 1);
    }

    #[test]
    fn metrics_disabled_by_default_and_installable() {
        let sim = Sim::new(3);
        assert!(!sim.metrics().enabled());
        assert!(!sim.ctx().metrics().enabled());
        let reg = sim.install_metrics();
        assert!(sim.ctx().metrics().enabled());
        // The outliving handle shares state with the installed registry.
        sim.ctx().metrics().counter("x").inc();
        assert_eq!(reg.counter("x").get(), 1);
    }

    #[test]
    fn executor_self_profile_flushes_on_run() {
        let mut sim = Sim::new(4);
        let reg = sim.install_metrics();
        let ctx = sim.ctx();
        sim.spawn(async move {
            // One cancelled timer (race loser) and a few fired ones.
            let _ = race(
                ctx.sleep(SimDuration::from_secs(100)),
                ctx.sleep(SimDuration::from_millis(1)),
            )
            .await;
            ctx.sleep(SimDuration::from_millis(1)).await;
        });
        sim.run();
        let snap = reg.snapshot();
        assert_eq!(snap.counters["sim.executor.tasks_spawned"], 1);
        assert_eq!(snap.counters["sim.executor.tasks_completed"], 1);
        assert!(snap.counters["sim.executor.polls"] >= 3);
        assert_eq!(snap.counters["sim.timer.cancels"], 1);
        assert!(snap.counters["sim.timer.fires"] >= 2);
        assert!(snap.counters["sim.timer.inserts"] >= 3);
        assert!(snap.gauges["sim.executor.peak_live_tasks"] >= 1.0);
        // Flush is idempotent: running again without new work leaves the
        // same values.
        let before = snap.counters["sim.executor.polls"];
        sim.run();
        assert_eq!(reg.snapshot().counters["sim.executor.polls"], before);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn trace(seed: u64) -> Vec<u64> {
            let mut sim = Sim::new(seed);
            let log: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
            for _ in 0..20 {
                let ctx = sim.ctx();
                let log = Rc::clone(&log);
                sim.spawn(async move {
                    let d = ctx.with_rng(|r| r.gen_range_u64(1, 1000));
                    ctx.sleep(SimDuration::from_micros(d)).await;
                    log.borrow_mut().push(ctx.now().as_nanos());
                });
            }
            sim.run();
            let v = log.borrow().clone();
            v
        }
        assert_eq!(trace(7), trace(7));
        assert_ne!(trace(7), trace(8));
    }

    #[test]
    fn yield_now_lets_others_run() {
        let mut sim = Sim::new(1);
        let flag = Rc::new(Cell::new(false));
        let f2 = Rc::clone(&flag);
        let ctx = sim.ctx();
        let ctx2 = sim.ctx();
        sim.spawn(async move {
            ctx.yield_now().await;
            // By now the other task (spawned after us) must have run.
            assert!(f2.get());
        });
        sim.spawn(async move {
            let _ = ctx2; // same tick
            flag.set(true);
        });
        sim.run();
    }
}
