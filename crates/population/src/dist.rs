//! The heavy-tailed distributions of the paper's Table 1.
//!
//! The evaluation dataset draws each author attribute from a **Dagum**,
//! **Burr XII** or **Power-Function** distribution with the parameters
//! listed in Table 1 ("the Dagum and Burr distributions are commonly used
//! to model income"). All three have closed-form quantile functions, so we
//! sample by inverse-CDF transform of a uniform variate.
//!
//! Values are clamped to the attribute's closed integer domain, matching
//! the bounded domains the paper lists for every attribute.

use rand::Rng;

/// A continuous distribution that can be sampled through its quantile
/// (inverse-CDF) function.
pub(crate) trait InverseCdf {
    /// The quantile function `Q(u)` for `u ∈ (0, 1)`.
    fn quantile(&self, u: f64) -> f64;

    /// The CDF `F(x)`; used by goodness-of-fit tests.
    fn cdf(&self, x: f64) -> f64;

    /// Draw one continuous sample.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Open interval: avoid u == 0 and u == 1 where heavy-tailed
        // quantile functions diverge.
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        self.quantile(u)
    }

    /// Draw one sample rounded and clamped to the closed integer range
    /// `[min, max]` (the domains of Table 1).
    fn sample_clamped<R: Rng + ?Sized>(&self, rng: &mut R, min: i64, max: i64) -> i64 {
        let x = self.sample(rng).round();
        let x = if x.is_finite() { x } else { max as f64 };
        (x as i64).clamp(min, max)
    }
}

/// Dagum distribution (a.k.a. inverse Burr) with shape `k`, shape `alpha`,
/// scale `beta` and location `gamma`.
///
/// CDF: `F(x) = (1 + ((x - γ)/β)^(-α))^(-k)` for `x > γ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dagum {
    /// First shape parameter `k > 0`.
    pub k: f64,
    /// Second shape parameter `α > 0`.
    pub alpha: f64,
    /// Scale `β > 0`.
    pub beta: f64,
    /// Location `γ`.
    pub gamma: f64,
}

impl Dagum {
    /// Construct, validating parameter positivity.
    pub fn new(k: f64, alpha: f64, beta: f64, gamma: f64) -> Self {
        assert!(k > 0.0 && alpha > 0.0 && beta > 0.0, "invalid Dagum params");
        Self {
            k,
            alpha,
            beta,
            gamma,
        }
    }
}

impl InverseCdf for Dagum {
    fn quantile(&self, u: f64) -> f64 {
        // Q(u) = γ + β (u^{-1/k} − 1)^{−1/α}
        self.gamma + self.beta * (u.powf(-1.0 / self.k) - 1.0).powf(-1.0 / self.alpha)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= self.gamma {
            return 0.0;
        }
        (1.0 + ((x - self.gamma) / self.beta).powf(-self.alpha)).powf(-self.k)
    }
}

/// Burr XII distribution with shape `k`, shape `alpha`, scale `beta` and
/// location `gamma`.
///
/// CDF: `F(x) = 1 − (1 + ((x − γ)/β)^α)^(−k)` for `x > γ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Burr {
    /// First shape parameter `k > 0`.
    pub k: f64,
    /// Second shape parameter `α > 0`.
    pub alpha: f64,
    /// Scale `β > 0`.
    pub beta: f64,
    /// Location `γ`.
    pub gamma: f64,
}

impl Burr {
    /// Construct, validating parameter positivity.
    pub fn new(k: f64, alpha: f64, beta: f64, gamma: f64) -> Self {
        assert!(k > 0.0 && alpha > 0.0 && beta > 0.0, "invalid Burr params");
        Self {
            k,
            alpha,
            beta,
            gamma,
        }
    }
}

impl InverseCdf for Burr {
    fn quantile(&self, u: f64) -> f64 {
        // Q(u) = γ + β ((1 − u)^{−1/k} − 1)^{1/α}
        self.gamma + self.beta * ((1.0 - u).powf(-1.0 / self.k) - 1.0).powf(1.0 / self.alpha)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= self.gamma {
            return 0.0;
        }
        1.0 - (1.0 + ((x - self.gamma) / self.beta).powf(self.alpha)).powf(-self.k)
    }
}

/// Power-Function distribution on `[a, b]` with shape `alpha`.
///
/// CDF: `F(x) = ((x − a)/(b − a))^α`. Used by Table 1 for the first/last
/// publication years; large `α` skews mass towards `b` (recent years).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PowerFunction {
    /// Shape `α > 0`.
    pub alpha: f64,
    /// Lower bound of the support.
    pub a: f64,
    /// Upper bound of the support.
    pub b: f64,
}

impl PowerFunction {
    /// Construct, validating `α > 0` and `a < b`.
    pub fn new(alpha: f64, a: f64, b: f64) -> Self {
        assert!(alpha > 0.0 && a < b, "invalid PowerFunction params");
        Self { alpha, a, b }
    }
}

impl InverseCdf for PowerFunction {
    fn quantile(&self, u: f64) -> f64 {
        self.a + (self.b - self.a) * u.powf(1.0 / self.alpha)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= self.a {
            0.0
        } else if x >= self.b {
            1.0
        } else {
            ((x - self.a) / (self.b - self.a)).powf(self.alpha)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(0xD15E)
    }

    /// quantile and cdf must be inverses of each other.
    fn check_inverse<D: InverseCdf>(d: &D) {
        for &u in &[0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let x = d.quantile(u);
            let back = d.cdf(x);
            assert!(
                (back - u).abs() < 1e-9,
                "cdf(quantile({u})) = {back}, expected {u}"
            );
        }
    }

    #[test]
    fn dagum_inverse_round_trip() {
        check_inverse(&Dagum::new(0.68, 0.52, 0.89, 1.0));
        check_inverse(&Dagum::new(0.98, 3.41, 3.42, 0.0));
    }

    #[test]
    fn burr_inverse_round_trip() {
        check_inverse(&Burr::new(0.47, 2.96, 3.05, 0.0));
        check_inverse(&Burr::new(0.32, 2.92, 2.83, 0.0));
    }

    #[test]
    fn power_inverse_round_trip() {
        check_inverse(&PowerFunction::new(7.75, 1936.0, 2013.0));
        check_inverse(&PowerFunction::new(11.83, 1936.0, 2013.0));
    }

    #[test]
    fn cdf_is_monotone() {
        let d = Dagum::new(0.68, 0.52, 0.89, 1.0);
        let b = Burr::new(0.47, 2.96, 3.05, 0.0);
        let mut prev_d = 0.0;
        let mut prev_b = 0.0;
        for i in 1..200 {
            let x = i as f64;
            let fd = d.cdf(x);
            let fb = b.cdf(x);
            assert!(fd >= prev_d && (0.0..=1.0).contains(&fd));
            assert!(fb >= prev_b && (0.0..=1.0).contains(&fb));
            prev_d = fd;
            prev_b = fb;
        }
    }

    #[test]
    fn samples_respect_clamp() {
        let d = Dagum::new(0.16, 0.86, 0.78, 1.0); // heavy tail (myp)
        let mut r = rng();
        for _ in 0..10_000 {
            let v = d.sample_clamped(&mut r, 0, 140);
            assert!((0..=140).contains(&v));
        }
    }

    /// Empirical CDF of power-function samples should match the analytic CDF
    /// (one-sample Kolmogorov–Smirnov with a generous fixed-seed bound).
    #[test]
    fn power_function_ks_fit() {
        let p = PowerFunction::new(7.75, 1936.0, 2013.0);
        let mut r = rng();
        let n = 20_000;
        let mut xs: Vec<f64> = (0..n).map(|_| p.sample(&mut r)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut dmax: f64 = 0.0;
        for (i, &x) in xs.iter().enumerate() {
            let emp = (i + 1) as f64 / n as f64;
            dmax = dmax.max((emp - p.cdf(x)).abs());
        }
        // K–S critical value at α = 0.001 is ~1.95/sqrt(n) ≈ 0.0138.
        assert!(dmax < 0.015, "KS statistic too large: {dmax}");
    }

    /// Power function with large alpha skews towards the upper bound:
    /// the median first-publication year should be well after the midpoint.
    #[test]
    fn power_function_skews_recent() {
        let p = PowerFunction::new(7.75, 1936.0, 2013.0);
        let median = p.quantile(0.5);
        assert!(median > 2000.0, "median {median} should be after 2000");
    }

    /// The Dagum nop distribution is heavy-tailed: the mean exceeds the
    /// median by a wide margin.
    #[test]
    fn dagum_heavy_tail() {
        let d = Dagum::new(0.68, 0.52, 0.89, 1.0);
        let mut r = rng();
        let n = 50_000usize;
        let samples: Vec<i64> = (0..n).map(|_| d.sample_clamped(&mut r, 1, 699)).collect();
        let mean = samples.iter().sum::<i64>() as f64 / n as f64;
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let median = sorted[n / 2] as f64;
        assert!(
            mean > 2.0 * median,
            "expected heavy tail, mean={mean} median={median}"
        );
    }

    #[test]
    #[should_panic(expected = "invalid Dagum params")]
    fn dagum_rejects_bad_params() {
        Dagum::new(-1.0, 1.0, 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid PowerFunction params")]
    fn power_rejects_inverted_bounds() {
        PowerFunction::new(1.0, 10.0, 5.0);
    }
}
