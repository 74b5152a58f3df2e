//! Runtime determinism sanitizer: asserts discrete-event-simulation
//! invariants as the simulation runs, and folds every scheduling decision
//! into a cheap rolling digest so two same-seed runs can be diffed at the
//! first divergent event instead of at the final output.
//!
//! The sanitizer checks the run itself, where a violation is a fact: what
//! the compiler can see (wall clock, env, host threads, hash containers)
//! is clippy's, under the workspace's `clippy.toml`. It is enabled by
//! default in debug builds — which is what `cargo test` runs — and off in
//! release builds unless [`Sim::enable_sanitizer`](crate::Sim::enable_sanitizer)
//! is called, so experiment binaries pay nothing for it.
//!
//! Checked invariants:
//! * the global virtual clock never moves backwards ([`Sanitizer::on_advance`]);
//! * each task observes monotonically non-decreasing time across its polls
//!   ([`Sanitizer::on_poll`]; the instant of a task's previous poll lives in
//!   the executor's task slot, which hands it over with every poll, so the
//!   sanitizer keeps no per-task state and a poll costs it two folds);
//! * domain invariants wired in by other crates — token-bucket conservation
//!   in `skyrise-net`, usage-meter cross-checks in `skyrise-compute` —
//!   via [`Sanitizer::check`] / [`Sanitizer::check_close`];
//! * the **run ledger**: per storage service, the bytes the meter billed,
//!   the bytes that entered a network transfer and the bytes its token
//!   buckets granted are the same bytes, up to requests and transfers
//!   dropped half-way ([`ServiceLedger`]). Storage bills through
//!   [`Sanitizer::bill`], `net::transfer` moves through
//!   [`Sanitizer::stream`], and the two laws are asserted whenever
//!   `Sim::run` reaches quiescence and whenever a [`Sanitizer::report`] is
//!   taken. The ledger is plain integer adds; it folds nothing into the
//!   digest.
//!
//! A sanitizer panic means the simulation violated its own model contract;
//! the message names the invariant. Treat it like a failed assert, not
//! like flaky-test noise: the same seed will reproduce it exactly.

use crate::time::SimTime;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::{fnv1a64_fold, FNV64_OFFSET as FNV_OFFSET};

/// Fold one `u64` into an FNV-1a rolling hash.
fn fnv_fold(h: u64, v: u64) -> u64 {
    fnv1a64_fold(h, &v.to_le_bytes())
}

/// How often (in observed events) a digest checkpoint is recorded.
const CHECKPOINT_EVERY: u64 = 1024;

/// One digest checkpoint: the rolling digest after `event` events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestCheckpoint {
    /// Number of events folded in when this checkpoint was taken.
    pub event: u64,
    /// Rolling digest value at that point.
    pub digest: u64,
}

/// Snapshot of sanitizer state after (or during) a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SanitizerReport {
    /// Total events observed (polls + clock advances + domain checks).
    pub events: u64,
    /// Final rolling digest. Two same-seed runs of the same model must
    /// produce identical digests; a mismatch proves nondeterminism.
    pub digest: u64,
    /// Periodic checkpoints for locating the first divergent event.
    pub trail: Vec<DigestCheckpoint>,
}

impl SanitizerReport {
    /// Locate the first divergence between two runs: returns the event
    /// count of the earliest checkpoint whose digests differ, or `None`
    /// when every common checkpoint (and the final digest) agrees.
    pub fn first_divergence(&self, other: &SanitizerReport) -> Option<u64> {
        for (a, b) in self.trail.iter().zip(&other.trail) {
            if a.event == b.event && a.digest != b.digest {
                return Some(a.event);
            }
        }
        if self.digest != other.digest || self.events != other.events {
            return Some(self.events.min(other.events));
        }
        None
    }
}

/// Storage services the run ledger can hold accounts for.
const LEDGER_ACCOUNTS: usize = 8;

/// The law relating a service's billed bytes to its transfers.
pub const BILLING_LAW: &str = "bytes billed = bytes into transfer + bytes dropped before streaming";

/// The law relating a service's transfers to its token-bucket grants.
pub const STREAMING_LAW: &str = "bytes into transfer = bytes granted + bytes dropped mid-flight";

/// One storage service's byte accounts in the run ledger. The two laws,
/// [`BILLING_LAW`] and [`STREAMING_LAW`], count the bytes of requests and
/// transfers still under way (`awaiting`, `moving`) on the dropped side, so
/// they hold at any instant between polls; at quiescence both are zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceLedger {
    /// Bytes of successful requests the meter billed.
    pub billed: u64,
    /// Billed bytes whose request has not reached `transfer` yet.
    pub awaiting: u64,
    /// Billed bytes whose request was dropped before streaming.
    pub dropped_before_streaming: u64,
    /// Bytes `transfer` was asked to move.
    pub streamed: u64,
    /// Bytes the token buckets granted.
    pub granted: u64,
    /// Bytes of transfers under way that are not granted yet.
    pub moving: u64,
    /// Bytes left unmoved by transfers dropped mid-flight.
    pub dropped_mid_flight: u64,
}

impl ServiceLedger {
    /// The first law these totals break, if any.
    pub fn broken_law(&self) -> Option<&'static str> {
        if self.billed != self.streamed + self.dropped_before_streaming + self.awaiting {
            Some(BILLING_LAW)
        } else if self.streamed != self.granted + self.dropped_mid_flight + self.moving {
            Some(STREAMING_LAW)
        } else {
            None
        }
    }
}

#[derive(Debug)]
struct SanitizerState {
    events: Cell<u64>,
    digest: Cell<u64>,
    trail: RefCell<Vec<DigestCheckpoint>>,
    /// Account `i` belongs to the service named `services[i]`; accounts
    /// open in order, so the first `""` ends the open ones.
    services: [Cell<&'static str>; LEDGER_ACCOUNTS],
    ledgers: [Cell<ServiceLedger>; LEDGER_ACCOUNTS],
}

impl SanitizerState {
    /// The account of `service`, if it is open.
    fn account(&self, service: &str) -> Option<usize> {
        self.services
            .iter()
            .map(Cell::get)
            .take_while(|open| !open.is_empty())
            .position(|open| open == service)
    }

    /// The account of `service`, opened if need be.
    fn open(&self, service: &'static str) -> usize {
        self.account(service).unwrap_or_else(|| {
            let free = self
                .services
                .iter()
                .position(|open| open.get().is_empty())
                .expect("sanitizer: the run ledger has no free account");
            self.services[free].set(service);
            free
        })
    }

    fn credit(&self, account: usize, entry: impl FnOnce(&mut ServiceLedger)) {
        let cell = &self.ledgers[account];
        let mut ledger = cell.get();
        entry(&mut ledger);
        cell.set(ledger);
    }
}

/// Billed bytes on their way to `transfer`, from [`Sanitizer::bill`]. Drop
/// it before [`Billed::streaming`] and its bytes count as dropped before
/// streaming: the loser of a race, a request that timed out during its
/// first-byte latency.
#[derive(Debug, Default)]
pub struct Billed {
    account: Option<(Rc<SanitizerState>, usize)>,
    bytes: u64,
}

impl Billed {
    /// The bytes enter `transfer` now, which credits them in its turn.
    pub fn streaming(mut self) {
        if let Some((s, i)) = self.account.take() {
            s.credit(i, |l| l.awaiting -= self.bytes);
        }
    }
}

impl Drop for Billed {
    fn drop(&mut self) {
        if let Some((s, i)) = self.account.take() {
            let bytes = self.bytes;
            s.credit(i, |l| {
                l.awaiting -= bytes;
                l.dropped_before_streaming += bytes;
            });
        }
    }
}

/// A transfer's bytes in the run ledger, from [`Sanitizer::stream`]. Drop it
/// before all are granted and the rest count as dropped mid-flight.
#[derive(Debug, Default)]
pub struct Streaming {
    account: Option<(Rc<SanitizerState>, usize)>,
    bytes: u64,
    granted: u64,
}

impl Streaming {
    /// The token buckets have granted `settled` of the transfer's bytes so
    /// far (a running total, never decreasing).
    pub fn granted(&mut self, settled: u64) {
        let Some((s, i)) = &self.account else { return };
        let delta = settled - self.granted;
        self.granted = settled;
        s.credit(*i, |l| {
            l.granted += delta;
            l.moving -= delta;
        });
    }
}

impl Drop for Streaming {
    fn drop(&mut self) {
        if let Some((s, i)) = self.account.take() {
            let rest = self.bytes - self.granted;
            s.credit(i, |l| {
                l.moving -= rest;
                l.dropped_mid_flight += rest;
            });
        }
    }
}

/// Handle onto the simulation's sanitizer. Cheap to clone; a disabled
/// handle makes every call a no-op.
#[derive(Debug, Clone, Default)]
pub struct Sanitizer {
    state: Option<Rc<SanitizerState>>,
}

impl Sanitizer {
    /// An active sanitizer with empty state.
    pub fn new() -> Self {
        Sanitizer {
            state: Some(Rc::new(SanitizerState {
                events: Cell::new(0),
                digest: Cell::new(FNV_OFFSET),
                trail: RefCell::new(Vec::new()),
                services: Default::default(),
                ledgers: Default::default(),
            })),
        }
    }

    /// A no-op sanitizer.
    pub fn disabled() -> Self {
        Sanitizer { state: None }
    }

    /// True when checks are active.
    pub fn enabled(&self) -> bool {
        self.state.is_some()
    }

    fn fold(&self, s: &SanitizerState, v: u64) {
        s.digest.set(fnv_fold(s.digest.get(), v));
        let n = s.events.get() + 1;
        s.events.set(n);
        if n % CHECKPOINT_EVERY == 0 {
            s.trail.borrow_mut().push(DigestCheckpoint {
                event: n,
                digest: s.digest.get(),
            });
        }
    }

    /// Record a task poll at `now`, `last` being the instant of the task's
    /// previous poll (`SimTime::ZERO` before its first). Asserts the task's
    /// virtual clock is monotone: a task can never be polled at an earlier
    /// time than it last ran.
    pub fn on_poll(&self, task: u64, last: SimTime, now: SimTime) {
        let Some(s) = &self.state else { return };
        let (last, now) = (last.as_nanos(), now.as_nanos());
        assert!(
            now >= last,
            "sanitizer: task {task} polled at t={now}ns after \
             being polled at t={last}ns — virtual time ran backwards"
        );
        self.fold(s, task);
        self.fold(s, now);
    }

    /// Record a task completion. Its monotonicity clock dies with its task
    /// slot.
    pub fn on_complete(&self, task: u64) {
        let Some(s) = &self.state else { return };
        self.fold(s, task ^ 0x5eed_dead_beef_0000);
    }

    /// Record a global clock advance. Asserts the clock never rewinds.
    pub fn on_advance(&self, from: SimTime, to: SimTime) {
        let Some(s) = &self.state else { return };
        assert!(
            to >= from,
            "sanitizer: virtual clock moved backwards: {from} -> {to}"
        );
        self.fold(s, to.as_nanos());
    }

    /// Assert a domain invariant. The message closure only runs on failure.
    pub fn check(&self, cond: bool, msg: impl FnOnce() -> String) {
        if self.state.is_none() {
            return;
        }
        assert!(cond, "sanitizer: {}", msg());
    }

    /// Assert two f64 quantities agree to within a relative epsilon
    /// (1e-6 of the larger magnitude, floored at an absolute 1e-9 so
    /// zero-vs-zero comparisons pass). Used for conservation laws where
    /// float rounding accumulates but real leaks are orders larger.
    pub fn check_close(&self, a: f64, b: f64, what: impl FnOnce() -> String) {
        if self.state.is_none() {
            return;
        }
        let scale = a.abs().max(b.abs());
        let tol = (scale * 1e-6).max(1e-9);
        assert!(
            (a - b).abs() <= tol,
            "sanitizer: {}: {a} != {b} (|diff| = {}, tol = {tol})",
            what(),
            (a - b).abs()
        );
    }

    /// Fold an arbitrary observation into the digest (e.g. bytes granted
    /// by a token bucket). Use for state that should be identical across
    /// same-seed runs but is invisible to the executor.
    pub fn observe(&self, label: &str, value: u64) {
        let Some(s) = &self.state else { return };
        let h = fnv1a64_fold(FNV_OFFSET, label.as_bytes());
        self.fold(s, h);
        self.fold(s, value);
    }

    /// Open `service`'s account in the run ledger; a storage service opens
    /// its own when it is built. From then on every transfer labelled
    /// `service` must be billed, and every billed byte streamed.
    pub fn open_account(&self, service: &'static str) {
        if let Some(s) = &self.state {
            s.open(service);
        }
    }

    /// Credit `bytes` billed to `service` (opening its account) and hand
    /// them to the request until it streams them.
    pub fn bill(&self, service: &'static str, bytes: u64) -> Billed {
        let Some(s) = &self.state else {
            return Billed::default();
        };
        let i = s.open(service);
        s.credit(i, |l| {
            l.billed += bytes;
            l.awaiting += bytes;
        });
        Billed {
            account: Some((Rc::clone(s), i)),
            bytes,
        }
    }

    /// Credit `bytes` entering a transfer labelled `label`. A transfer
    /// whose label names no open account is not a storage transfer and is
    /// not ledgered.
    pub fn stream(&self, label: Option<&'static str>, bytes: u64) -> Streaming {
        let (Some(s), Some(label)) = (&self.state, label) else {
            return Streaming::default();
        };
        let Some(i) = s.account(label) else {
            return Streaming::default();
        };
        s.credit(i, |l| {
            l.streamed += bytes;
            l.moving += bytes;
        });
        Streaming {
            account: Some((Rc::clone(s), i)),
            bytes,
            granted: 0,
        }
    }

    /// `service`'s totals in the run ledger, if its account is open.
    pub fn ledger(&self, service: &str) -> Option<ServiceLedger> {
        let s = self.state.as_ref()?;
        s.account(service).map(|i| s.ledgers[i].get())
    }

    /// Assert both ledger laws for every open account.
    pub fn check_ledger(&self) {
        let Some(s) = &self.state else { return };
        for (service, ledger) in s.services.iter().zip(&s.ledgers) {
            let (service, ledger) = (service.get(), ledger.get());
            if service.is_empty() {
                break;
            }
            if let Some(law) = ledger.broken_law() {
                panic!("sanitizer: {service} breaks the run ledger's law {law}: {ledger:?}");
            }
        }
    }

    /// Snapshot the current state, or `None` when disabled. Asserts the
    /// run ledger first ([`Sanitizer::check_ledger`]).
    pub fn report(&self) -> Option<SanitizerReport> {
        self.check_ledger();
        self.state.as_ref().map(|s| SanitizerReport {
            events: s.events.get(),
            digest: s.digest.get(),
            trail: s.trail.borrow().clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::time::SimDuration;

    fn run_workload(seed: u64) -> SanitizerReport {
        let mut sim = Sim::new(seed);
        let san = sim.enable_sanitizer();
        for i in 0..20u64 {
            let ctx = sim.ctx();
            sim.spawn(async move {
                let d = ctx.with_rng(|r| r.gen_range_u64(1, 500));
                ctx.sleep(SimDuration::from_micros(d + i)).await;
                ctx.sleep(SimDuration::from_micros(d)).await;
            });
        }
        sim.run();
        san.report().expect("enabled")
    }

    #[test]
    fn same_seed_same_digest() {
        let a = run_workload(7);
        let b = run_workload(7);
        assert_eq!(a, b);
        assert_eq!(a.first_divergence(&b), None);
    }

    #[test]
    fn different_seed_different_digest() {
        let a = run_workload(7);
        let b = run_workload(8);
        assert_ne!(a.digest, b.digest);
        assert!(a.first_divergence(&b).is_some());
    }

    #[test]
    fn first_divergence_points_at_earliest_checkpoint() {
        let mk = |vals: &[(u64, u64)], digest: u64| SanitizerReport {
            events: vals.last().map(|v| v.0).unwrap_or(0),
            digest,
            trail: vals
                .iter()
                .map(|&(event, digest)| DigestCheckpoint { event, digest })
                .collect(),
        };
        let a = mk(&[(1024, 10), (2048, 20), (3072, 30)], 99);
        let b = mk(&[(1024, 10), (2048, 21), (3072, 31)], 98);
        assert_eq!(a.first_divergence(&b), Some(2048));
        let c = mk(&[(1024, 10), (2048, 20), (3072, 30)], 99);
        assert_eq!(a.first_divergence(&c), None);
    }

    #[test]
    fn disabled_sanitizer_is_noop() {
        let san = Sanitizer::disabled();
        // Would panic if enabled.
        san.on_poll(1, SimTime::from_nanos(5), SimTime::from_nanos(1));
        san.check(false, || unreachable!("message closure must not run"));
        assert!(san.report().is_none());
        assert!(!san.enabled());
    }

    #[test]
    #[should_panic(expected = "task 1 polled at t=50ns after being polled at t=100ns")]
    fn per_task_clock_regression_panics() {
        let san = Sanitizer::new();
        san.on_poll(1, SimTime::ZERO, SimTime::from_nanos(100));
        san.on_poll(1, SimTime::from_nanos(100), SimTime::from_nanos(50));
    }

    #[test]
    #[should_panic(expected = "clock moved backwards")]
    fn global_clock_regression_panics() {
        let san = Sanitizer::new();
        san.on_advance(
            crate::SimTime::from_nanos(100),
            crate::SimTime::from_nanos(99),
        );
    }

    #[test]
    #[should_panic(expected = "sanitizer: tokens leaked")]
    fn failed_check_panics_with_context() {
        let san = Sanitizer::new();
        san.check(false, || "tokens leaked".to_string());
    }

    #[test]
    fn check_close_accepts_rounding_rejects_leaks() {
        let san = Sanitizer::new();
        san.check_close(1e9, 1e9 + 0.5, || "rounding".into()); // within 1e-6 rel
        san.check_close(0.0, 0.0, || "zero".into());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            san.check_close(100.0, 101.0, || "leak".into());
        }));
        assert!(r.is_err(), "1% discrepancy must fail");
    }

    #[test]
    fn observe_changes_digest() {
        let a = Sanitizer::new();
        let b = Sanitizer::new();
        a.observe("bucket", 1);
        b.observe("bucket", 2);
        assert_ne!(a.report().unwrap().digest, b.report().unwrap().digest);
    }

    #[test]
    fn checkpoints_appear_on_long_runs() {
        let san = Sanitizer::new();
        for i in 0..3000u64 {
            san.observe("tick", i);
        }
        let r = san.report().unwrap();
        assert!(
            r.trail.len() >= 4,
            "3000 observations x2 folds => >=4 checkpoints, got {}",
            r.trail.len()
        );
        assert!(r.trail.windows(2).all(|w| w[0].event < w[1].event));
    }

    #[test]
    fn task_completion_frees_clock_slot() {
        let san = Sanitizer::new();
        san.on_poll(1, SimTime::ZERO, SimTime::from_nanos(100));
        san.on_complete(1);
        // The clock lived in the finished task's slot. Whatever runs under
        // the same id next starts from zero (the executor never reuses ids,
        // but the sanitizer should not depend on that).
        san.on_poll(1, SimTime::ZERO, SimTime::from_nanos(50));
    }

    /// A little of everything that wakes a task: plain and sliced sleeps, a
    /// race against a timeout whose loser is cancelled, a semaphore queue,
    /// join handles awaited in order, detached children, RNG draws.
    fn mixed_scenario(seed: u64) -> SanitizerReport {
        use crate::executor::{join_all, race, Either};
        let mut sim = Sim::new(seed);
        let san = sim.enable_sanitizer();
        let ctx = sim.ctx();
        let sem = crate::sync::Semaphore::new(2);
        let root = sim.spawn(async move {
            let workers: Vec<_> = (0..6u64)
                .map(|i| {
                    let (ctx, sem) = (ctx.clone(), sem.clone());
                    ctx.clone().spawn(async move {
                        let _permit = sem.acquire().await;
                        let d = ctx.with_rng(|r| r.gen_range_u64(1, 400));
                        ctx.sleep(SimDuration::from_micros(d)).await;
                        ctx.sleep_slices(SimDuration::from_micros(50), 1 + i % 3)
                            .await;
                        let work = ctx.sleep(SimDuration::from_micros(100 * (i + 1)));
                        let timeout = ctx.sleep(SimDuration::from_micros(250));
                        let timed_out = matches!(race(work, timeout).await, Either::Right(()));
                        let detached = ctx.clone();
                        drop(ctx.spawn(async move {
                            detached.sleep(SimDuration::from_micros(3 * d)).await;
                        }));
                        ctx.sanitizer().observe("worker", i);
                        timed_out
                    })
                })
                .collect();
            join_all(workers).await
        });
        sim.run();
        let timed_out = root.try_take().expect("root finished");
        assert_eq!(timed_out, [false, false, true, true, true, true]);
        san.report().expect("enabled")
    }

    /// The digest of `mixed_scenario`, recorded at commit 5ec9551 (before
    /// timers carried task ids and the per-task clock moved into the task
    /// slot). A change that is meant to leave the schedule alone leaves
    /// these two constants alone; one that means to move it re-pins them.
    #[test]
    fn scheduling_digest_is_pinned() {
        let report = mixed_scenario(42);
        assert_eq!(report.events, 141);
        assert_eq!(
            report.digest, 0x67c0_6b3e_1b2d_6285,
            "{:#018x}",
            report.digest
        );
    }

    #[test]
    fn default_on_in_debug_builds() {
        let sim = Sim::new(1);
        assert_eq!(sim.sanitizer().enabled(), cfg!(debug_assertions));
    }
}
