//! Seeded randomness and the distributions the infrastructure models need.
//!
//! Cloud latencies are famously heavy-tailed (the paper measures S3 reads
//! with a 27 ms median and a 10 s maximum — 374× the median). We model such
//! behaviour as a lognormal body mixed with a bounded Pareto tail. All
//! sampling is funnelled through [`SimRng`], one instance per simulation,
//! so a run is a pure function of its seed.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The simulation's random number generator.
pub struct SimRng {
    inner: SmallRng,
}

impl SimRng {
    /// Construct from a seed. Equal seeds produce equal streams.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform integer in `[lo, hi)`. Panics if `lo >= hi`.
    #[inline]
    pub fn gen_range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        self.inner.gen_range(lo..hi)
    }

    /// Uniform float in `[lo, hi)`.
    #[inline]
    pub fn gen_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        self.inner.gen_range(lo..hi)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.gen_bool(p)
        }
    }

    /// Standard normal via Box–Muller.
    pub fn gen_std_normal(&mut self) -> f64 {
        // Avoid ln(0) by sampling u1 from (0, 1].
        let u1 = 1.0 - self.gen_f64();
        let u2 = self.gen_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal with the given mean and standard deviation.
    #[inline]
    pub fn gen_normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.gen_std_normal()
    }

    /// Lognormal with parameters `mu`, `sigma` of the underlying normal.
    #[inline]
    pub fn gen_lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.gen_std_normal()).exp()
    }

    /// Exponential with the given mean (`1/lambda`).
    pub fn gen_exponential(&mut self, mean: f64) -> f64 {
        let u = 1.0 - self.gen_f64();
        -mean * u.ln()
    }

    /// Pareto with scale `x_m` and shape `alpha` (> 0): support `[x_m, inf)`.
    pub fn gen_pareto(&mut self, x_m: f64, alpha: f64) -> f64 {
        let u = 1.0 - self.gen_f64();
        x_m / u.powf(1.0 / alpha)
    }

    /// Draw a sample from a [`LatencyDist`].
    pub fn sample(&mut self, dist: &LatencyDist) -> f64 {
        dist.sample(self)
    }
}

/// A latency distribution: lognormal body + optional bounded Pareto tail.
///
/// Parameterised by observable quantities (median, p95) rather than raw
/// `mu`/`sigma`, so models can be written straight from the paper's
/// reported quantiles.
#[derive(Debug, Clone)]
pub struct LatencyDist {
    /// `mu` of the lognormal body (`ln(median)`).
    pub mu: f64,
    /// `sigma` of the lognormal body.
    pub sigma: f64,
    /// Probability that a sample is drawn from the tail instead of the body.
    pub tail_prob: f64,
    /// Pareto scale of the tail (tail samples start here).
    pub tail_scale: f64,
    /// Pareto shape of the tail.
    pub tail_shape: f64,
    /// Hard cap applied to every sample (e.g. a client-visible timeout bound).
    pub max: f64,
}

/// z-score of the 95th percentile of the standard normal.
const Z95: f64 = 1.6448536269514722;

impl LatencyDist {
    /// Build from a median and a 95th percentile (both in seconds), plus a
    /// tail specification. `p95` must exceed `median`.
    pub fn from_quantiles(median: f64, p95: f64, tail_prob: f64, max: f64) -> Self {
        assert!(median > 0.0 && p95 > median, "need 0 < median < p95");
        let mu = median.ln();
        let sigma = (p95.ln() - mu) / Z95;
        LatencyDist {
            mu,
            sigma,
            tail_prob,
            // Tail starts around p99 of the body and decays slowly.
            tail_scale: (mu + 2.33 * sigma).exp(),
            tail_shape: 1.2,
            max,
        }
    }

    /// A degenerate (constant) distribution — useful in tests.
    pub fn constant(value: f64) -> Self {
        LatencyDist {
            mu: value.ln(),
            sigma: 0.0,
            tail_prob: 0.0,
            tail_scale: value,
            tail_shape: 1.0,
            max: value,
        }
    }

    /// Median of the body.
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }

    /// Approximate p95 of the body.
    pub fn p95(&self) -> f64 {
        (self.mu + Z95 * self.sigma).exp()
    }

    fn sample(&self, rng: &mut SimRng) -> f64 {
        let v = if self.tail_prob > 0.0 && rng.gen_bool(self.tail_prob) {
            rng.gen_pareto(self.tail_scale, self.tail_shape)
        } else {
            rng.gen_lognormal(self.mu, self.sigma)
        };
        v.min(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(0xC0FFEE)
    }

    #[test]
    fn determinism() {
        let mut a = SimRng::new(9);
        let mut b = SimRng::new(9);
        for _ in 0..100 {
            assert_eq!(a.gen_range_u64(0, 1_000_000), b.gen_range_u64(0, 1_000_000));
        }
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.gen_normal(5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "std {}", var.sqrt());
    }

    #[test]
    fn exponential_mean() {
        let mut r = rng();
        let n = 50_000;
        let mean = (0..n).map(|_| r.gen_exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn pareto_support() {
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(r.gen_pareto(2.0, 1.5) >= 2.0);
        }
    }

    #[test]
    fn latency_dist_hits_requested_quantiles() {
        // S3 Standard read from the paper: median 27 ms, p95 75 ms.
        let d = LatencyDist::from_quantiles(0.027, 0.075, 0.0, 60.0);
        let mut r = rng();
        let n = 100_000;
        let mut samples: Vec<f64> = (0..n).map(|_| r.sample(&d)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = samples[n / 2];
        let p95 = samples[n * 95 / 100];
        assert!((med - 0.027).abs() / 0.027 < 0.05, "median {med}");
        assert!((p95 - 0.075).abs() / 0.075 < 0.06, "p95 {p95}");
    }

    #[test]
    fn latency_dist_tail_produces_outliers() {
        let d = LatencyDist::from_quantiles(0.027, 0.075, 0.002, 12.0);
        let mut r = rng();
        let n = 200_000;
        let max = (0..n).map(|_| r.sample(&d)).fold(0.0f64, f64::max);
        // Outliers should reach orders of magnitude above the median.
        assert!(max > 1.0, "max {max}");
        assert!(max <= 12.0, "cap respected: {max}");
    }

    #[test]
    fn constant_dist_is_constant() {
        let d = LatencyDist::constant(0.005);
        let mut r = rng();
        for _ in 0..100 {
            assert!((r.sample(&d) - 0.005).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "median")]
    fn from_quantiles_validates() {
        let _ = LatencyDist::from_quantiles(0.1, 0.05, 0.0, 1.0);
    }
}
