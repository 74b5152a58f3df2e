//! Measurement instruments used by every experiment.
//!
//! * [`IntervalSeries`] — fixed-width time-bucket accumulator, the
//!   instrument behind the paper's "throughput at 20 ms intervals" plots.
//! * [`Histogram`] — log-bucketed latency histogram with exact min/max,
//!   good for the request-latency distributions of Fig. 10.
//! * [`summary`] — scalar statistics (mean, relative standard deviation /
//!   coefficient of variation, percentiles) used throughout Sec. 4.6.

use crate::time::{SimDuration, SimTime};

// ---------------------------------------------------------------------------
// IntervalSeries
// ---------------------------------------------------------------------------

/// Accumulates a quantity (bytes, ops) into fixed-width virtual-time
/// buckets, yielding a rate series.
#[derive(Debug, Clone)]
pub struct IntervalSeries {
    /// Bucket width.
    interval: SimDuration,
    /// Start of the first bucket.
    origin: SimTime,
    /// Accumulated quantity per bucket.
    buckets: Vec<f64>,
}

impl IntervalSeries {
    /// Create a series with the given bucket width, starting at `origin`.
    pub fn new(origin: SimTime, interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "interval must be positive");
        IntervalSeries {
            interval,
            origin,
            buckets: Vec::new(),
        }
    }

    /// Record `amount` at instant `t`. Events before `origin` land in
    /// bucket 0.
    pub fn record(&mut self, t: SimTime, amount: f64) {
        let idx = (t.duration_since(self.origin).as_nanos() / self.interval.as_nanos()) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0.0);
        }
        self.buckets[idx] += amount;
    }

    /// Spread `amount` uniformly over `[start, end)`, proportionally per
    /// bucket — used when a transfer spans several sampling intervals.
    pub fn record_span(&mut self, start: SimTime, end: SimTime, amount: f64) {
        if end <= start {
            self.record(start, amount);
            return;
        }
        let total = (end - start).as_nanos() as f64;
        let ival = self.interval.as_nanos();
        let mut t = start.as_nanos();
        let end_ns = end.as_nanos();
        let origin = self.origin.as_nanos();
        while t < end_ns {
            let rel = t.saturating_sub(origin);
            let bucket_end = origin + (rel / ival + 1) * ival;
            let chunk_end = bucket_end.min(end_ns);
            let frac = (chunk_end - t) as f64 / total;
            self.record(SimTime::from_nanos(t), amount * frac);
            t = chunk_end;
        }
    }

    /// Bucket width.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Raw per-bucket totals.
    pub fn totals(&self) -> &[f64] {
        &self.buckets
    }

    /// Per-bucket rate in units/second.
    pub fn rates_per_sec(&self) -> Vec<f64> {
        let secs = self.interval.as_secs_f64();
        self.buckets.iter().map(|b| b / secs).collect()
    }

    /// `(bucket_start_seconds, rate_per_sec)` pairs, ready for plotting.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let secs = self.interval.as_secs_f64();
        let origin = self.origin.as_secs_f64();
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, b)| (origin + i as f64 * secs, b / secs))
            .collect()
    }

    /// Sum over all buckets.
    pub fn total(&self) -> f64 {
        self.buckets.iter().sum()
    }

    /// Highest per-bucket rate (units/second).
    pub fn peak_rate(&self) -> f64 {
        let secs = self.interval.as_secs_f64();
        self.buckets.iter().fold(0.0f64, |a, &b| a.max(b / secs))
    }

    /// Merge another series with identical origin/interval into this one.
    pub fn merge(&mut self, other: &IntervalSeries) {
        assert_eq!(self.interval, other.interval, "interval mismatch");
        assert_eq!(self.origin, other.origin, "origin mismatch");
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0.0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Log-bucketed histogram over positive values with ~4.5% relative bucket
/// resolution, plus exact count/sum/min/max. Records values in seconds
/// (or any positive unit).
#[derive(Debug, Clone)]
pub struct Histogram {
    /// log-spaced bucket counts; bucket i covers [BASE^i*MIN, BASE^(i+1)*MIN)
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}
serde::impl_json! { struct Histogram { counts, count, sum, min, max } }

/// Smallest representable value (1 ns when values are seconds).
const HIST_MIN: f64 = 1e-9;
/// Per-bucket growth factor.
const HIST_BASE: f64 = 1.045;

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Vec::new(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bucket_of(v: f64) -> usize {
        if v <= HIST_MIN {
            return 0;
        }
        ((v / HIST_MIN).ln() / HIST_BASE.ln()) as usize
    }

    fn bucket_value(i: usize) -> f64 {
        // Geometric midpoint of bucket i.
        HIST_MIN * HIST_BASE.powf(i as f64 + 0.5)
    }

    /// Record a value. Non-finite or non-positive values clamp to the
    /// smallest bucket.
    pub fn record(&mut self, v: f64) {
        let v = if v.is_finite() && v > 0.0 {
            v
        } else {
            HIST_MIN
        };
        let idx = Self::bucket_of(v);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact minimum (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact maximum (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Approximate quantile `q` in `[0, 1]` (nearest-rank over the log
    /// buckets, clamped to the exact min/max).
    ///
    /// Edge cases are exact: an empty histogram returns 0, `q <= 0`
    /// returns the exact minimum, `q >= 1` the exact maximum — so
    /// quantiles are always within the recorded range and
    /// `quantile(0) <= quantile(q) <= quantile(1)` holds for any `q`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_value(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Condensed summary for reports.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            mean: self.mean(),
            min: self.min(),
            p50: self.median(),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
            max: self.max(),
        }
    }
}

/// The headline statistics of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Recorded values.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Exact minimum.
    pub min: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// Exact maximum.
    pub max: f64,
}

// ---------------------------------------------------------------------------
// Scalar summaries
// ---------------------------------------------------------------------------

/// Scalar statistics over a slice of samples.
pub mod summary {
    /// Arithmetic mean (0 for empty input).
    pub fn mean(xs: &[f64]) -> f64 {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(xs: &[f64]) -> f64 {
        if xs.len() < 2 {
            return 0.0;
        }
        let m = mean(xs);
        (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
    }

    /// Coefficient of variation in percent — the paper's CoV measure
    /// (relative standard deviation).
    pub fn cov_percent(xs: &[f64]) -> f64 {
        let m = mean(xs);
        if m == 0.0 {
            0.0
        } else {
            100.0 * std_dev(xs) / m
        }
    }

    /// Exact percentile by sorting a copy (nearest-rank).
    pub fn percentile(xs: &[f64], p: f64) -> f64 {
        if xs.is_empty() {
            return 0.0;
        }
        let mut v = xs.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
        let rank = ((p.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize).max(1);
        v[rank - 1]
    }

    /// Median via [`percentile`].
    pub fn median(xs: &[f64]) -> f64 {
        percentile(xs, 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    #[test]
    fn interval_series_buckets_and_rates() {
        let mut s = IntervalSeries::new(SimTime::ZERO, SimDuration::from_millis(20));
        s.record(t(0), 10.0);
        s.record(t(19), 5.0);
        s.record(t(20), 7.0);
        s.record(t(100), 1.0);
        assert_eq!(s.totals(), &[15.0, 7.0, 0.0, 0.0, 0.0, 1.0]);
        let rates = s.rates_per_sec();
        assert!((rates[0] - 750.0).abs() < 1e-9);
        assert!((s.total() - 23.0).abs() < 1e-9);
        assert!((s.peak_rate() - 750.0).abs() < 1e-9);
    }

    #[test]
    fn record_span_distributes_proportionally() {
        let mut s = IntervalSeries::new(SimTime::ZERO, SimDuration::from_millis(20));
        // 100 units over [10ms, 50ms): 10ms in b0, 20ms in b1, 10ms in b2.
        s.record_span(t(10), t(50), 100.0);
        let tot = s.totals();
        assert!((tot[0] - 25.0).abs() < 1e-9, "{tot:?}");
        assert!((tot[1] - 50.0).abs() < 1e-9, "{tot:?}");
        assert!((tot[2] - 25.0).abs() < 1e-9, "{tot:?}");
        assert!((s.total() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn record_span_degenerate_interval() {
        let mut s = IntervalSeries::new(SimTime::ZERO, SimDuration::from_millis(20));
        s.record_span(t(30), t(30), 5.0);
        assert!((s.total() - 5.0).abs() < 1e-12);
        assert!((s.totals()[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn series_merge() {
        let mut a = IntervalSeries::new(SimTime::ZERO, SimDuration::from_millis(20));
        let mut b = IntervalSeries::new(SimTime::ZERO, SimDuration::from_millis(20));
        a.record(t(0), 1.0);
        b.record(t(40), 2.0);
        a.merge(&b);
        assert_eq!(a.totals(), &[1.0, 0.0, 2.0]);
    }

    #[test]
    fn histogram_quantiles_close_to_exact() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64 / 1000.0); // 1ms..1s uniform
        }
        assert_eq!(h.count(), 1000);
        let med = h.median();
        assert!((med - 0.5).abs() / 0.5 < 0.05, "median {med}");
        let p95 = h.quantile(0.95);
        assert!((p95 - 0.95).abs() / 0.95 < 0.05, "p95 {p95}");
        assert!((h.min() - 0.001).abs() < 1e-12);
        assert!((h.max() - 1.0).abs() < 1e-12);
        assert!((h.mean() - 0.5005).abs() < 1e-9);
    }

    #[test]
    fn histogram_merge_equals_combined() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut c = Histogram::new();
        for i in 1..=100 {
            let v = i as f64 * 0.01;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        assert!((a.mean() - c.mean()).abs() < 1e-12);
        assert_eq!(a.summary().p95, c.summary().p95);
    }

    #[test]
    fn histogram_handles_degenerate_inputs() {
        let mut h = Histogram::new();
        h.record(-5.0);
        h.record(f64::NAN);
        h.record(0.0);
        assert_eq!(h.count(), 3);
        assert!(h.max() <= 1e-8);
    }

    #[test]
    fn quantile_edge_cases() {
        // Empty histogram: every quantile is 0.
        let empty = Histogram::new();
        for q in [-1.0, 0.0, 0.5, 1.0, 2.0] {
            assert_eq!(empty.quantile(q), 0.0);
        }
        // q<=0 and q>=1 are the exact extrema, even out of range.
        let mut h = Histogram::new();
        for v in [0.017, 0.4, 0.9] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0.017);
        assert_eq!(h.quantile(-3.0), 0.017);
        assert_eq!(h.quantile(1.0), 0.9);
        assert_eq!(h.quantile(7.0), 0.9);
        // Single value: every quantile collapses onto it.
        let mut one = Histogram::new();
        one.record(0.25);
        for q in [0.0, 0.5, 0.95, 0.999, 1.0] {
            assert_eq!(one.quantile(q), 0.25, "q={q}");
        }
        // Monotone across the whole range.
        let mut prev = h.quantile(0.0);
        for i in 1..=100 {
            let cur = h.quantile(i as f64 / 100.0);
            assert!(cur >= prev, "quantile not monotone at {i}%");
            prev = cur;
        }
    }

    #[test]
    fn summary_orders_percentiles_with_p999() {
        let mut h = Histogram::new();
        for i in 1..=2000 {
            h.record(i as f64 / 1000.0);
        }
        let s = h.summary();
        assert!(s.min <= s.p50 && s.p50 <= s.p95 && s.p95 <= s.p99);
        assert!(s.p99 <= s.p999 && s.p999 <= s.max);
        assert!((s.p999 - 1.998).abs() / 1.998 < 0.05, "p999 {}", s.p999);
    }

    mod merge_props {
        use super::*;
        use proptest::prelude::*;

        fn values() -> impl Strategy<Value = Vec<f64>> {
            prop::collection::vec(1e-7..10.0f64, 0..60)
        }

        fn hist(vals: &[f64]) -> Histogram {
            let mut h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        }

        proptest! {
            /// Merge is associative for quantile outputs (bit-exact):
            /// counts are u64 sums and min/max are f64 min/max, all
            /// associative, and `quantile` never consults the
            /// order-sensitive float `sum`. This is what lets harness
            /// workers merge per-sim histograms in any grouping.
            #[test]
            fn merge_is_associative_for_quantiles(
                a in values(), b in values(), c in values()
            ) {
                let (ha, hb, hc) = (hist(&a), hist(&b), hist(&c));
                // (a ⊔ b) ⊔ c
                let mut left = ha.clone();
                left.merge(&hb);
                left.merge(&hc);
                // a ⊔ (b ⊔ c)
                let mut bc = hb.clone();
                bc.merge(&hc);
                let mut right = ha.clone();
                right.merge(&bc);
                prop_assert_eq!(left.count(), right.count());
                for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
                    prop_assert_eq!(
                        left.quantile(q).to_bits(),
                        right.quantile(q).to_bits(),
                        "q={} diverged: {} vs {}", q, left.quantile(q), right.quantile(q)
                    );
                }
            }
        }
    }

    #[test]
    fn summary_stats() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((summary::mean(&xs) - 5.0).abs() < 1e-12);
        assert!((summary::std_dev(&xs) - 2.0).abs() < 1e-12);
        assert!((summary::cov_percent(&xs) - 40.0).abs() < 1e-12);
        assert_eq!(summary::median(&xs), 4.0);
        assert_eq!(summary::percentile(&xs, 1.0), 9.0);
        assert_eq!(summary::percentile(&[], 0.5), 0.0);
    }
}
