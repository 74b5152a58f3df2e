//! Region profiles driving the variability analysis (paper Sec. 4.6,
//! Table 5).
//!
//! The paper deploys its query suite in us-east-1, eu-west-1 and
//! ap-northeast-1 and reports the median-ratio (MR) to us-east-1 and the
//! coefficient of variation (CoV) within each region, for cold (15-minute
//! gaps over a workday) and warm (back-to-back) runs. Two observations
//! drive the model:
//!
//! * "In the EU, the startup of large function clusters takes
//!   significantly longer, likely due to contention within the region" —
//!   a lower sandbox-scaling rate and higher coldstart latency.
//! * "the cold experiment show\[s\] yet higher variance than the warm one"
//!   and "more frequent usage leads to pre-provisioning of resources and
//!   more robustness" — coldstart latency carries the variance, amplified
//!   by a diurnal load factor.

use skyrise_sim::{SimDuration, SimRng, SimTime};

/// A cloud region's contention characteristics.
#[derive(Debug, Clone)]
pub struct Region {
    /// AWS region name.
    pub name: &'static str,
    /// Median sandbox coldstart latency (seconds), before binary download.
    pub coldstart_base: f64,
    /// Lognormal sigma of coldstart latency. The dominant CoV source for
    /// cold runs.
    pub coldstart_sigma: f64,
    /// Sandbox-scaling rate multiplier (1.0 = the documented 500/min).
    pub scaling_rate_factor: f64,
    /// Relative amplitude of the diurnal load factor applied to coldstart
    /// latency (0.0 = flat).
    pub diurnal_amplitude: f64,
    /// Warm-invocation latency jitter sigma (small).
    pub warm_sigma: f64,
}

impl Region {
    /// us-east-1: fastest scaling, but the busiest region — high local
    /// (especially cold) variability.
    pub fn us_east_1() -> Self {
        Region {
            name: "us-east-1",
            coldstart_base: 0.125,
            coldstart_sigma: 0.55,
            scaling_rate_factor: 1.0,
            diurnal_amplitude: 0.35,
            warm_sigma: 0.06,
        }
    }

    /// eu-west-1: contended function scaling — cluster startup is ~50%
    /// slower, but individual latencies are comparatively steady.
    pub fn eu_west_1() -> Self {
        Region {
            name: "eu-west-1",
            coldstart_base: 0.16,
            coldstart_sigma: 0.12,
            scaling_rate_factor: 0.12,
            diurnal_amplitude: 0.05,
            warm_sigma: 0.10,
        }
    }

    /// ap-northeast-1: slightly faster than us-east-1 at the median, with
    /// moderate variability.
    pub fn ap_northeast_1() -> Self {
        Region {
            name: "ap-northeast-1",
            coldstart_base: 0.115,
            coldstart_sigma: 0.22,
            scaling_rate_factor: 0.95,
            diurnal_amplitude: 0.12,
            warm_sigma: 0.07,
        }
    }

    /// The three regions of Table 5 in paper order.
    pub fn table5() -> [Region; 3] {
        [
            Region::us_east_1(),
            Region::eu_west_1(),
            Region::ap_northeast_1(),
        ]
    }

    /// Diurnal load factor at a simulation instant (>= 1 - amplitude,
    /// peaking mid-workday at 1 + amplitude).
    pub fn diurnal_factor(&self, now: SimTime) -> f64 {
        let day = 86_400.0;
        let phase = (now.as_secs_f64() % day) / day * std::f64::consts::TAU;
        1.0 + self.diurnal_amplitude * phase.sin()
    }

    /// Sample a coldstart latency (excluding binary download) at `now`.
    pub fn sample_coldstart(&self, rng: &mut SimRng, now: SimTime) -> SimDuration {
        let base = rng.gen_lognormal(self.coldstart_base.ln(), self.coldstart_sigma);
        SimDuration::from_secs_f64(base * self.diurnal_factor(now))
    }

    /// Sample a warmstart latency.
    pub fn sample_warmstart(&self, rng: &mut SimRng) -> SimDuration {
        let ms = rng.gen_lognormal((0.004f64).ln(), self.warm_sigma);
        SimDuration::from_secs_f64(ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diurnal_factor_oscillates_around_one() {
        let r = Region::us_east_1();
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for h in 0..24 {
            let f = r.diurnal_factor(SimTime::from_nanos(h * 3_600 * 1_000_000_000));
            min = min.min(f);
            max = max.max(f);
        }
        assert!(min < 0.7 && min > 0.6);
        assert!(max > 1.3 && max < 1.4);
    }

    #[test]
    fn eu_scaling_is_substantially_slower() {
        assert!(Region::eu_west_1().scaling_rate_factor < 0.5);
        assert!((Region::us_east_1().scaling_rate_factor - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cold_coldstarts_vary_more_in_us() {
        let us = Region::us_east_1();
        let eu = Region::eu_west_1();
        let mut rng = SimRng::new(5);
        let sample = |r: &Region, rng: &mut SimRng| -> Vec<f64> {
            (0..2000)
                .map(|i| {
                    r.sample_coldstart(rng, SimTime::from_nanos(i * 60_000_000_000))
                        .as_secs_f64()
                })
                .collect()
        };
        let cov = |xs: &[f64]| skyrise_sim::metrics::summary::cov_percent(xs);
        let us_cov = cov(&sample(&us, &mut rng));
        let eu_cov = cov(&sample(&eu, &mut rng));
        assert!(us_cov > 2.0 * eu_cov, "us {us_cov} vs eu {eu_cov}");
    }

    #[test]
    fn warmstarts_are_single_digit_milliseconds() {
        let r = Region::us_east_1();
        let mut rng = SimRng::new(1);
        for _ in 0..100 {
            let w = r.sample_warmstart(&mut rng).as_secs_f64();
            assert!(w > 0.001 && w < 0.01, "{w}");
        }
    }
}
