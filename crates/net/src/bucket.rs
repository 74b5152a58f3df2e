//! Token-bucket rate limiters.
//!
//! The paper reverse-engineers two bucket flavours (Sec. 4.2):
//!
//! * **EC2-style** — a classic continuous-refill bucket: tokens accrue at
//!   the baseline bandwidth up to a capacity that grows with instance
//!   size; while tokens remain, traffic may burst to the burst bandwidth.
//! * **Lambda-style** — an initial ~300 MiB budget split into a one-off,
//!   non-rechargeable half and a rechargeable half; once empty, 7.5 MiB of
//!   tokens arrive in discrete 100 ms slots (75 MiB/s baseline), and the
//!   rechargeable half refills as soon as the function stops using the
//!   network ("refills halfway to the initial capacity").
//!
//! Both are expressed by [`RateLimiter`] with a [`RefillPolicy`].

use skyrise_sim::{SimDuration, SimTime};

/// How tokens return to the bucket.
#[derive(Debug, Clone, Copy)]
pub enum RefillPolicy {
    /// Tokens accrue continuously at `rate` bytes/second (EC2 style).
    Continuous {
        /// Refill rate (bytes/s).
        rate: f64,
    },
    /// Tokens arrive in discrete `bytes_per_slot` jumps every `slot`
    /// (Lambda style: 7.5 MiB per 100 ms).
    Slotted {
        /// Slot length.
        slot: SimDuration,
        /// Tokens added per slot (bytes).
        bytes_per_slot: f64,
    },
}

/// Refill-on-idle behaviour (Lambda style).
#[derive(Debug, Clone, Copy)]
pub struct IdleRefill {
    /// Minimum gap without traffic before the refill triggers.
    pub threshold: SimDuration,
    /// The rechargeable token level is restored to `fraction * capacity`.
    pub fraction: f64,
}

/// A directional token bucket limiting one endpoint's ingress or egress.
#[derive(Debug, Clone)]
pub struct RateLimiter {
    /// Maximum instantaneous rate while tokens are available (bytes/s).
    burst_rate: f64,
    /// Capacity of the rechargeable token pool (bytes).
    capacity: f64,
    /// Current rechargeable tokens (bytes).
    tokens: f64,
    /// Remaining one-off, never-refilled budget (bytes).
    oneoff: f64,
    refill: RefillPolicy,
    idle_refill: Option<IdleRefill>,
    last_advance: SimTime,
    last_use: SimTime,
    /// Total bytes ever consumed (for accounting/tests).
    consumed: f64,
    /// Budget at construction: initial tokens + one-off (bytes).
    initial: f64,
    /// Total tokens actually added by refills, post-capping (bytes).
    refilled: f64,
}

impl RateLimiter {
    /// A continuous-refill bucket (EC2 style): starts full.
    pub fn continuous(burst_rate: f64, baseline_rate: f64, capacity: f64) -> Self {
        assert!(burst_rate > 0.0 && baseline_rate >= 0.0 && capacity >= 0.0);
        RateLimiter {
            burst_rate,
            capacity,
            tokens: capacity,
            oneoff: 0.0,
            refill: RefillPolicy::Continuous {
                rate: baseline_rate,
            },
            idle_refill: None,
            last_advance: SimTime::ZERO,
            last_use: SimTime::ZERO,
            consumed: 0.0,
            initial: capacity,
            refilled: 0.0,
        }
    }

    /// A Lambda-style bucket: `rechargeable` tokens plus a `oneoff` budget,
    /// slotted baseline refill, and refill-on-idle of the rechargeable pool.
    pub fn lambda_style(
        burst_rate: f64,
        rechargeable: f64,
        oneoff: f64,
        slot: SimDuration,
        bytes_per_slot: f64,
        idle: IdleRefill,
    ) -> Self {
        RateLimiter {
            burst_rate,
            capacity: rechargeable,
            tokens: rechargeable,
            oneoff,
            refill: RefillPolicy::Slotted {
                slot,
                bytes_per_slot,
            },
            idle_refill: Some(idle),
            last_advance: SimTime::ZERO,
            last_use: SimTime::ZERO,
            consumed: 0.0,
            initial: rechargeable + oneoff,
            refilled: 0.0,
        }
    }

    /// An unlimited limiter (rate cap only, effectively infinite tokens).
    pub fn unlimited(rate: f64) -> Self {
        RateLimiter::continuous(rate, rate, f64::MAX / 4.0)
    }

    /// A pure rate limit with no burst accumulation beyond one `slice`.
    pub fn pure_rate(rate: f64, slice: SimDuration) -> Self {
        RateLimiter::continuous(rate, rate, rate * slice.as_secs_f64())
    }

    /// Bring token state up to `now`.
    pub fn advance(&mut self, now: SimTime) {
        if now <= self.last_advance {
            return;
        }
        let before = self.tokens;
        match self.refill {
            RefillPolicy::Continuous { rate } => {
                let dt = (now - self.last_advance).as_secs_f64();
                self.tokens = (self.tokens + rate * dt).min(self.capacity);
            }
            RefillPolicy::Slotted {
                slot,
                bytes_per_slot,
            } => {
                let slot_ns = slot.as_nanos();
                let prev_slots = self.last_advance.as_nanos() / slot_ns;
                let now_slots = now.as_nanos() / slot_ns;
                let crossed = now_slots.saturating_sub(prev_slots);
                if crossed > 0 {
                    self.tokens =
                        (self.tokens + crossed as f64 * bytes_per_slot).min(self.capacity);
                }
            }
        }
        if let Some(idle) = self.idle_refill {
            if now.duration_since(self.last_use) >= idle.threshold {
                self.tokens = self.tokens.max(idle.fraction * self.capacity);
            }
        }
        // Conservation ledger: record what the refill actually added after
        // capping, so granted + remaining always equals initial + refilled.
        self.refilled += self.tokens - before;
        self.last_advance = now;
        debug_assert!(
            self.conservation_error() < 1e-6,
            "token bucket leaked on advance: rel err {}",
            self.conservation_error()
        );
    }

    /// The earliest instant after `now` at which [`RateLimiter::advance`]
    /// could raise the spendable budget, absent consumption: for every `t`
    /// in `(now, quiet_until(now, slice))`, `advance(t)` leaves `tokens`,
    /// `oneoff` and `refilled` bit-identical. Call `advance(now)` first.
    /// `slice` is the period at which the caller would otherwise poll.
    ///
    /// What other users of the bucket consume in the meantime only lowers
    /// `tokens` and pushes `last_use` (and with it the idle refill) later,
    /// so for a **slotted** bucket the answer — its next slot boundary or
    /// idle refill, whichever is first — holds whatever they do.
    ///
    /// A **continuous** bucket accrues `rate * dt` in `f64`, and one
    /// `advance` over `2 dt` is not bit-identical to two over `dt`, so a
    /// draining one is never quiet (the answer is `now`). A full one is
    /// quiet for ever — but a sibling may drain it mid-wait, and the polls
    /// the caller then skips would have split the refill into other steps.
    /// So only a full bucket that cannot carry a deficit from one poll to
    /// the next counts as quiet: one that refills from empty within a
    /// `slice` (`pure_rate`: `tokens` is back at exactly `capacity` a slice
    /// after any consumption; only the `refilled` ledger, a sum of deltas,
    /// can keep a last-bit difference), or one no `u64` byte count can
    /// dent (`unlimited`). A deep EC2-style bucket is never quiet.
    pub fn quiet_until(&self, now: SimTime, slice: SimDuration) -> SimTime {
        let refill = match self.refill {
            RefillPolicy::Continuous { rate } => {
                let full = self.tokens >= self.capacity;
                let shallow = rate * slice.as_secs_f64() >= self.capacity;
                let inexhaustible = self.tokens - u64::MAX as f64 == self.tokens;
                if rate == 0.0 || (full && (shallow || inexhaustible)) {
                    SimTime::MAX
                } else {
                    now
                }
            }
            RefillPolicy::Slotted { slot, .. } => {
                let slot_ns = slot.as_nanos();
                SimTime::from_nanos((now.as_nanos() / slot_ns + 1).saturating_mul(slot_ns))
            }
        };
        match self.idle_refill {
            Some(idle) if self.tokens < idle.fraction * self.capacity => {
                refill.min(self.last_use.saturating_add(idle.threshold))
            }
            _ => refill,
        }
    }

    /// Maximum bytes grantable over the next `slice` starting at `now`.
    /// Call [`RateLimiter::advance`] first (or use [`RateLimiter::grant`]).
    pub fn peek(&self, slice: SimDuration) -> f64 {
        let by_rate = self.burst_rate * slice.as_secs_f64();
        by_rate.min(self.tokens + self.oneoff).max(0.0)
    }

    /// Consume `bytes` of tokens (rechargeable pool first, then one-off).
    /// Callers must not consume more than [`RateLimiter::peek`] allowed.
    pub fn consume(&mut self, now: SimTime, bytes: f64) {
        debug_assert!(bytes >= 0.0);
        if bytes <= 0.0 {
            return;
        }
        let from_tokens = bytes.min(self.tokens);
        self.tokens -= from_tokens;
        let rest = bytes - from_tokens;
        self.oneoff = (self.oneoff - rest).max(0.0);
        self.consumed += bytes;
        self.last_use = now;
        debug_assert!(
            self.conservation_error() < 1e-6,
            "token bucket leaked on consume: rel err {} (overdraw past peek?)",
            self.conservation_error()
        );
    }

    /// Advance, then atomically grant up to `want` bytes for the coming
    /// `slice`; returns the granted amount.
    pub fn grant(&mut self, now: SimTime, slice: SimDuration, want: f64) -> f64 {
        self.advance(now);
        let g = self.peek(slice).min(want);
        if g > 0.0 {
            self.consume(now, g);
        }
        g
    }

    /// Current rechargeable tokens.
    pub fn tokens(&self) -> f64 {
        self.tokens
    }

    /// Remaining one-off budget.
    pub fn oneoff(&self) -> f64 {
        self.oneoff
    }

    /// Total combined budget currently spendable at burst rate.
    pub fn available(&self) -> f64 {
        self.tokens + self.oneoff
    }

    /// Lifetime bytes consumed.
    pub fn consumed(&self) -> f64 {
        self.consumed
    }

    /// The burst-rate ceiling (bytes/s).
    pub fn burst_rate(&self) -> f64 {
        self.burst_rate
    }

    /// Baseline sustained rate (bytes/s).
    pub fn baseline_rate(&self) -> f64 {
        match self.refill {
            RefillPolicy::Continuous { rate } => rate,
            RefillPolicy::Slotted {
                slot,
                bytes_per_slot,
            } => bytes_per_slot / slot.as_secs_f64(),
        }
    }

    /// Rechargeable capacity (bytes).
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Budget at construction (initial tokens + one-off, bytes).
    pub fn initial(&self) -> f64 {
        self.initial
    }

    /// Total tokens added by refills so far, after capping (bytes).
    pub fn refilled(&self) -> f64 {
        self.refilled
    }

    /// Fraction of one full-burst slice currently *unavailable*, in
    /// `[0, 1]`: 0 when a whole `slice` at burst rate could be granted
    /// right now, 1 when the bucket is empty. This is the telemetry
    /// layer's bucket-saturation ratio; call [`RateLimiter::advance`]
    /// first so the reading reflects `now`.
    pub fn saturation(&self, slice: SimDuration) -> f64 {
        let budget = self.burst_rate * slice.as_secs_f64();
        if budget <= 0.0 {
            return 0.0;
        }
        (1.0 - self.peek(slice) / budget).clamp(0.0, 1.0)
    }

    /// Relative error of the token-conservation law
    ///
    /// ```text
    /// tokens + oneoff + consumed == initial + refilled
    /// ```
    ///
    /// Every byte now spendable or already spent must have entered the
    /// bucket at construction or through a refill. The error is relative to
    /// the larger side (floored at 1.0 byte) so it stays meaningful for
    /// both small buckets and the quasi-infinite `unlimited()` bucket.
    pub fn conservation_error(&self) -> f64 {
        let lhs = self.tokens + self.oneoff + self.consumed;
        let rhs = self.initial + self.refilled;
        (lhs - rhs).abs() / lhs.abs().max(rhs.abs()).max(1.0)
    }

    /// Assert conservation against the simulation sanitizer. `what` names
    /// the bucket in the panic message.
    pub fn assert_conserved(&self, san: &skyrise_sim::Sanitizer, what: &str) {
        san.check(self.conservation_error() < 1e-6, || {
            format!(
                "token bucket `{what}` violates conservation: \
                 tokens {} + oneoff {} + consumed {} != initial {} + refilled {}",
                self.tokens, self.oneoff, self.consumed, self.initial, self.refilled
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyrise_sim::MIB;

    const SLICE: SimDuration = SimDuration::from_millis(10);

    fn mib(x: f64) -> f64 {
        x * MIB as f64
    }

    fn lambda_bucket() -> RateLimiter {
        RateLimiter::lambda_style(
            mib(1228.8), // 1.2 GiB/s
            mib(150.0),
            mib(150.0),
            SimDuration::from_millis(100),
            mib(7.5),
            IdleRefill {
                threshold: SimDuration::from_millis(500),
                fraction: 1.0,
            },
        )
    }

    #[test]
    fn continuous_bucket_bursts_then_sustains_baseline() {
        let burst = mib(1000.0);
        let base = mib(100.0);
        let cap = mib(500.0);
        let mut b = RateLimiter::continuous(burst, base, cap);
        let mut t = SimTime::ZERO;
        let mut sent = 0.0;
        // Burst phase: cap / (burst - base) seconds of full-rate traffic.
        for _ in 0..200 {
            sent += b.grant(t, SLICE, f64::MAX);
            t += SLICE;
        }
        // ~2 seconds elapsed: 500 MiB bucket + ~199 MiB baseline refill
        // (refill accrues up to the start of the final slice).
        let expect = mib(500.0 + 199.0);
        assert!(
            (sent - expect).abs() < mib(1.5),
            "sent {} MiB",
            sent / MIB as f64
        );
        // Steady state: each slice grants ~baseline.
        let g = b.grant(t, SLICE, f64::MAX);
        assert!((g - base * SLICE.as_secs_f64()).abs() < 1.0, "g {g}");
    }

    #[test]
    fn continuous_bucket_refills_to_capacity_when_idle() {
        let mut b = RateLimiter::continuous(mib(1000.0), mib(100.0), mib(200.0));
        let t0 = SimTime::ZERO;
        b.grant(t0, SimDuration::from_secs(1), f64::MAX); // drain
        assert!(b.tokens() < mib(1.0));
        b.advance(t0 + SimDuration::from_secs(10));
        assert!((b.tokens() - mib(200.0)).abs() < 1.0, "capped refill");
    }

    #[test]
    fn lambda_bucket_initial_burst_is_300_mib() {
        let mut b = lambda_bucket();
        let mut t = SimTime::ZERO;
        let mut sent = 0.0;
        // Drain for 260 ms (the paper observes ~250 ms of 1.2 GiB/s).
        for _ in 0..26 {
            sent += b.grant(t, SLICE, f64::MAX);
            t += SLICE;
        }
        // 300 MiB budget + 2 crossed slot refills (t=100ms, 200ms).
        let expect = mib(300.0 + 15.0);
        assert!(
            (sent - expect).abs() < mib(2.0),
            "burst {} MiB",
            sent / MIB as f64
        );
    }

    #[test]
    fn lambda_bucket_baseline_is_spiky_75_mibps() {
        let mut b = lambda_bucket();
        let mut t = SimTime::ZERO;
        // Exhaust the initial budget.
        for _ in 0..100 {
            b.grant(t, SLICE, f64::MAX);
            t += SLICE;
        }
        // Now measure one second: should total ~75 MiB, arriving in spikes.
        let mut per_slice = Vec::new();
        for _ in 0..100 {
            per_slice.push(b.grant(t, SLICE, f64::MAX));
            t += SLICE;
        }
        let total: f64 = per_slice.iter().sum();
        assert!(
            (total - mib(75.0)).abs() < mib(1.0),
            "total {}",
            total / MIB as f64
        );
        // Spiky: most slices grant zero, a few grant 7.5 MiB.
        let zeros = per_slice.iter().filter(|&&g| g < 1.0).count();
        assert!(zeros >= 85, "zeros {zeros}");
        let spikes = per_slice.iter().filter(|&&g| g > mib(7.0)).count();
        assert_eq!(spikes, 10, "one spike per 100ms slot");
    }

    #[test]
    fn lambda_idle_refill_restores_rechargeable_half_only() {
        let mut b = lambda_bucket();
        let mut t = SimTime::ZERO;
        // First burst: drain everything.
        for _ in 0..100 {
            b.grant(t, SLICE, f64::MAX);
            t += SLICE;
        }
        assert!(b.oneoff() < 1.0, "one-off spent");
        // 3-second break (the paper's experiment).
        t += SimDuration::from_secs(3);
        b.advance(t);
        let avail = b.available();
        // Rechargeable pool restored to 150 MiB; one-off stays empty.
        assert!(
            (avail - mib(150.0)).abs() < mib(1.0),
            "second burst {}",
            avail / MIB as f64
        );
        // Second burst total is roughly half the first.
        let mut sent = 0.0;
        for _ in 0..30 {
            sent += b.grant(t, SLICE, f64::MAX);
            t += SLICE;
        }
        assert!(
            sent < mib(300.0 + 25.0) / 1.8,
            "second burst shorter: {}",
            sent / MIB as f64
        );
    }

    #[test]
    fn oneoff_consumed_after_rechargeable() {
        let mut b = lambda_bucket();
        let t = SimTime::ZERO;
        b.advance(t);
        b.consume(t, mib(100.0));
        assert!((b.tokens() - mib(50.0)).abs() < 1.0);
        assert!((b.oneoff() - mib(150.0)).abs() < 1.0);
        b.consume(t, mib(100.0));
        assert!(b.tokens() < 1.0);
        assert!((b.oneoff() - mib(100.0)).abs() < 1.0);
    }

    #[test]
    fn peek_respects_burst_rate() {
        let mut b = lambda_bucket();
        b.advance(SimTime::ZERO);
        let allow = b.peek(SLICE);
        assert!((allow - mib(1228.8) * 0.01).abs() < 1.0);
    }

    #[test]
    fn grant_caps_at_want() {
        let mut b = lambda_bucket();
        let g = b.grant(SimTime::ZERO, SLICE, 1234.0);
        assert_eq!(g, 1234.0);
        assert_eq!(b.consumed(), 1234.0);
    }

    #[test]
    fn pure_rate_has_no_burst_memory() {
        let mut b = RateLimiter::pure_rate(mib(100.0), SLICE);
        let mut t = SimTime::from_nanos(0);
        // Idle for 10 seconds; a pure rate limiter must not accumulate.
        t += SimDuration::from_secs(10);
        let g = b.grant(t, SLICE, f64::MAX);
        assert!(g <= mib(100.0) * 0.0101, "g {}", g / MIB as f64);
    }

    #[test]
    fn baseline_rate_reported_for_both_policies() {
        let b = lambda_bucket();
        assert!((b.baseline_rate() - mib(75.0)).abs() < 1.0);
        let c = RateLimiter::continuous(mib(10.0), mib(2.0), mib(5.0));
        assert!((c.baseline_rate() - mib(2.0)).abs() < 1e-6);
    }

    #[test]
    fn conservation_holds_under_mixed_workload() {
        let mut b = lambda_bucket();
        let mut t = SimTime::from_nanos(0);
        // Burst, starve, idle-refill, burst again: the ledger must balance
        // the whole way through.
        for i in 0..5_000u64 {
            let want = if i % 7 == 0 { f64::MAX } else { mib(0.3) };
            b.grant(t, SLICE, want);
            t += if i % 100 == 99 {
                SimDuration::from_secs(3) // long enough to trip idle refill
            } else {
                SLICE
            };
            assert!(
                b.conservation_error() < 1e-9,
                "step {i}: rel err {}",
                b.conservation_error()
            );
        }
        assert!(b.consumed() > 0.0);
        assert!(b.refilled() > 0.0);
    }

    #[test]
    fn conservation_holds_for_continuous_and_pure_rate() {
        for mut b in [
            RateLimiter::continuous(mib(100.0), mib(10.0), mib(50.0)),
            RateLimiter::pure_rate(mib(100.0), SLICE),
        ] {
            let mut t = SimTime::from_nanos(0);
            for _ in 0..2_000 {
                b.grant(t, SLICE, mib(0.7));
                t += SLICE;
            }
            assert!(b.conservation_error() < 1e-9, "{}", b.conservation_error());
        }
    }

    #[test]
    fn conservation_holds_for_unlimited_bucket() {
        // The quasi-infinite bucket sits at f64 magnitudes where absolute
        // comparison is meaningless; the relative error must still be ~0.
        let mut b = RateLimiter::unlimited(mib(1000.0));
        let mut t = SimTime::from_nanos(0);
        for _ in 0..1_000 {
            b.grant(t, SLICE, mib(500.0));
            t += SLICE;
        }
        assert!(b.conservation_error() < 1e-9, "{}", b.conservation_error());
    }

    #[test]
    fn saturation_tracks_token_depletion() {
        let mut b = lambda_bucket();
        b.advance(SimTime::ZERO);
        // Full bucket: a whole burst slice is available.
        assert_eq!(b.saturation(SLICE), 0.0);
        // Drain everything: nothing grantable, fully saturated.
        b.consume(SimTime::ZERO, b.available());
        assert_eq!(b.saturation(SLICE), 1.0);
        // Partial budget: strictly between.
        let mut c = RateLimiter::continuous(mib(100.0), mib(10.0), mib(50.0));
        c.advance(SimTime::ZERO);
        c.consume(SimTime::ZERO, mib(50.0) - mib(100.0) * 0.01 / 2.0);
        let s = c.saturation(SLICE);
        assert!(s > 0.4 && s < 0.6, "saturation {s}");
    }

    fn ms(x: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(x)
    }

    #[test]
    fn quiet_until_slotted_is_next_slot_boundary() {
        let mut b = lambda_bucket();
        b.grant(SimTime::ZERO, SimDuration::from_secs(1), f64::MAX); // drain
        b.advance(ms(70));
        assert_eq!(b.quiet_until(ms(70), SLICE), ms(100));
        // Three 10 ms slices from 70 ms land exactly on the boundary, and
        // the advance there is the one that refills.
        let before = b.tokens();
        b.advance(ms(100));
        assert_eq!(b.tokens(), before + mib(7.5));
        // On a boundary the refill is already in; the next one is a slot on.
        assert_eq!(b.quiet_until(ms(100), SLICE), ms(200));
    }

    #[test]
    fn quiet_until_honours_idle_refill_only_below_its_level() {
        let idle = IdleRefill {
            threshold: SimDuration::from_millis(470),
            fraction: 0.5,
        };
        let mk = || {
            RateLimiter::lambda_style(
                mib(1000.0),
                mib(100.0),
                0.0,
                SimDuration::from_millis(100),
                mib(7.5),
                idle,
            )
        };
        // Drained at t = 0: the idle refill (470 ms) precedes the slot (500 ms).
        let mut b = mk();
        b.grant(SimTime::ZERO, SimDuration::from_secs(1), f64::MAX);
        b.advance(ms(420));
        assert_eq!(b.quiet_until(ms(420), SLICE), ms(470));
        let mut just_before = b.clone();
        just_before.advance(SimTime::from_nanos(ms(470).as_nanos() - 1));
        assert_eq!(just_before.tokens(), b.tokens());
        b.advance(ms(470));
        assert_eq!(b.tokens(), mib(50.0), "restored to fraction * capacity");
        // At or above that level the idle refill adds nothing: slots only.
        assert_eq!(b.quiet_until(ms(470), SLICE), ms(500));
        assert_eq!(mk().quiet_until(SimTime::ZERO, SLICE), ms(100));
    }

    #[test]
    fn quiet_until_continuous_is_never_or_for_ever() {
        let now = ms(30);
        // A deep bucket is never skipped: draining it accrues in f64
        // steps, and a full one keeps the deficit a sibling leaves in it.
        let mut deep = RateLimiter::continuous(mib(100.0), mib(10.0), mib(50.0));
        deep.advance(now);
        assert_eq!(deep.quiet_until(now, SLICE), now, "full but deep");
        deep.consume(now, mib(1.0));
        assert_eq!(deep.quiet_until(now, SLICE), now, "draining");
        // A pure rate limit is full again a slice after any consumption,
        // so it is quiet while full — at the slice it was built for.
        let mut pure = RateLimiter::pure_rate(mib(100.0), SLICE);
        pure.advance(now);
        assert_eq!(pure.quiet_until(now, SLICE), SimTime::MAX);
        assert_eq!(
            pure.quiet_until(now, SLICE / 2),
            now,
            "deep at a finer poll"
        );
        pure.consume(now, 1.0);
        assert_eq!(pure.quiet_until(now, SLICE), now, "draining");
        // No refill at all is quiet for ever, however empty.
        let mut dry = RateLimiter::continuous(mib(100.0), 0.0, mib(50.0));
        dry.grant(now, SimDuration::from_secs(1), f64::MAX);
        assert_eq!(dry.quiet_until(now, SLICE), SimTime::MAX);
        // The unlimited pool absorbs whatever is taken out of it.
        let mut svc = RateLimiter::unlimited(f64::MAX / 8.0);
        svc.grant(now, SLICE, mib(64.0));
        assert_eq!(svc.quiet_until(now, SLICE), SimTime::MAX);
    }

    mod quiet_props {
        use super::*;
        use proptest::prelude::*;

        fn limiter() -> impl Strategy<Value = RateLimiter> {
            prop_oneof![
                3 => (1u64..4, 0u64..3, 1u64..80, 0.0f64..1.0).prop_map(|(slot, oneoff, thr, fraction)| {
                    RateLimiter::lambda_style(
                        mib(800.0),
                        mib(20.0),
                        mib(10.0) * oneoff as f64,
                        SimDuration::from_millis(50 * slot),
                        mib(7.5),
                        IdleRefill { threshold: SimDuration::from_millis(10 * thr), fraction },
                    )
                }),
                2 => (0u64..3).prop_map(|r| RateLimiter::continuous(mib(800.0), mib(40.0) * r as f64, mib(20.0))),
                1 => Just(RateLimiter::pure_rate(mib(90.0), SLICE)),
                1 => Just(RateLimiter::unlimited(f64::MAX / 8.0)),
            ]
        }

        proptest! {
            /// Per-slice polling between `now` and `quiet_until(now)` finds
            /// the bucket exactly as it left it.
            #[test]
            fn advance_is_identity_before_quiet_until(
                fresh in limiter(),
                phase in 0u64..10_000_000,
                // (gap in slices, MiB wanted; 0 = only advance)
                history in prop::collection::vec((1u64..60, 0u64..12), 0..40),
            ) {
                let mut b = fresh;
                let mut now = SimTime::from_nanos(phase);
                for (gap, want) in history {
                    now += SLICE * gap;
                    b.grant(now, SLICE, mib(want as f64));
                }
                b.advance(now);
                let quiet = b.quiet_until(now, SLICE);
                prop_assert!(quiet >= now);
                let mut polled = b.clone();
                let mut t = now + SLICE;
                for _ in 0..200 {
                    if t >= quiet {
                        break;
                    }
                    polled.advance(t);
                    let mut jumped = b.clone();
                    jumped.advance(t);
                    for l in [&polled, &jumped] {
                        prop_assert_eq!(l.tokens().to_bits(), b.tokens().to_bits(), "tokens at {}", t);
                        prop_assert_eq!(l.oneoff().to_bits(), b.oneoff().to_bits(), "oneoff at {}", t);
                        prop_assert_eq!(l.refilled().to_bits(), b.refilled().to_bits(), "refilled at {}", t);
                    }
                    t += SLICE;
                }
            }
        }
    }

    #[test]
    fn ledger_accessors_match_construction() {
        let b = lambda_bucket();
        assert!((b.initial() - (b.capacity() + b.oneoff())).abs() < 1.0);
        assert_eq!(b.refilled(), 0.0);
    }
}
