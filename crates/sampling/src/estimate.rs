//! Estimating population statistics from stratified samples.
//!
//! The paper's motivation (Example 1) is that a stratified sample
//! supports the same estimates as a much larger simple random sample.
//! This module closes the loop: given an [`SsdAnswer`] and the stratum
//! population sizes, it computes the classic stratified estimators
//!
//! * mean:    `ȳ_st = Σ_k W_k ȳ_k` with `W_k = N_k / N`,
//! * total:   `N · ȳ_st`,
//! * variance of the mean (with finite-population correction):
//!   `Var(ȳ_st) = Σ_k W_k² (1 − f_k) s_k² / n_k`,
//!
//! plus the corresponding simple-random-sample estimator, so the *design
//! effect* (variance ratio) of a stratification can be measured.

use stratmr_population::{AttrId, Individual};
use stratmr_query::SsdAnswer;

/// A point estimate with its estimated standard error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// The point estimate.
    pub value: f64,
    /// Estimated standard error of the estimate.
    pub std_error: f64,
    /// True when the design was degenerate — some stratum with a
    /// nonzero population contributed no sample, so its weight enters
    /// the point estimate with an unknowable error. Surfaced in the
    /// audit [`crate::audit::QualityReport`].
    pub degenerate: bool,
}

impl Estimate {
    /// An estimate whose standard error needs no further correction.
    pub fn new(value: f64, std_error: f64) -> Self {
        Estimate {
            value,
            std_error,
            degenerate: false,
        }
    }

    /// Mark the estimate as degenerate (see the field docs).
    pub(crate) fn flag_degenerate(mut self) -> Self {
        self.degenerate = true;
        self
    }

    /// A two-sided confidence interval at the given z-score (1.96 ≈ 95%).
    pub fn interval(&self, z: f64) -> (f64, f64) {
        let half = z * self.std_error;
        (self.value - half, self.value + half)
    }
}

/// Mean and (population) variance of one attribute over a set of tuples.
fn moments(tuples: &[Individual], attr: AttrId) -> (f64, f64, usize) {
    let n = tuples.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    let mean = tuples.iter().map(|t| t.get(attr) as f64).sum::<f64>() / n as f64;
    if n == 1 {
        return (mean, 0.0, 1);
    }
    // unbiased sample variance
    let var = tuples
        .iter()
        .map(|t| (t.get(attr) as f64 - mean).powi(2))
        .sum::<f64>()
        / (n - 1) as f64;
    (mean, var, n)
}

/// Estimate the population mean of `attr` from a stratified sample.
///
/// `stratum_sizes[k]` is the population size `N_k` of stratum `k` (e.g.
/// from the Figure 4 counting job). A stratum with a nonzero population
/// but an empty sample cannot contribute — the estimate is returned
/// with its [`Estimate::degenerate`] flag set instead of dividing by
/// zero.
///
/// # Panics
/// Panics if the answer and `stratum_sizes` disagree on the number of
/// strata.
pub fn stratified_mean(answer: &SsdAnswer, stratum_sizes: &[usize], attr: AttrId) -> Estimate {
    assert_eq!(
        answer.num_strata(),
        stratum_sizes.len(),
        "stratum count mismatch"
    );
    let n_total: usize = stratum_sizes.iter().sum();
    if n_total == 0 {
        return Estimate::new(0.0, 0.0).flag_degenerate();
    }
    let mut mean = 0.0;
    let mut variance = 0.0;
    let mut degenerate = false;
    for (k, &n_k) in stratum_sizes.iter().enumerate() {
        if n_k == 0 {
            continue;
        }
        let w = n_k as f64 / n_total as f64;
        let (m_k, s2_k, n_sample) = moments(answer.stratum(k), attr);
        mean += w * m_k;
        if n_sample > 0 {
            let fpc = 1.0 - n_sample as f64 / n_k as f64;
            variance += w * w * fpc.max(0.0) * s2_k / n_sample as f64;
        } else {
            degenerate = true;
        }
    }
    let est = Estimate::new(mean, variance.sqrt());
    if degenerate {
        est.flag_degenerate()
    } else {
        est
    }
}

/// Estimate the population total of `attr` from a stratified sample.
pub fn stratified_total(answer: &SsdAnswer, stratum_sizes: &[usize], attr: AttrId) -> Estimate {
    let n_total: usize = stratum_sizes.iter().sum();
    let mean = stratified_mean(answer, stratum_sizes, attr);
    Estimate {
        value: mean.value * n_total as f64,
        std_error: mean.std_error * n_total as f64,
        ..mean
    }
}

/// Estimate the population mean of `attr` from a *simple random sample*
/// of a population of size `population`, for comparison with the
/// stratified estimator.
pub fn srs_mean(sample: &[Individual], population: usize, attr: AttrId) -> Estimate {
    let (mean, var, n) = moments(sample, attr);
    if n == 0 {
        return Estimate::new(0.0, 0.0).flag_degenerate();
    }
    let fpc = 1.0 - n as f64 / population as f64;
    Estimate::new(mean, (fpc.max(0.0) * var / n as f64).sqrt())
}

/// Estimate the fraction of the population satisfying a predicate from a
/// stratified sample (proportion estimator; variance via `p(1−p)`).
pub fn stratified_proportion(
    answer: &SsdAnswer,
    stratum_sizes: &[usize],
    predicate: impl Fn(&Individual) -> bool,
) -> Estimate {
    assert_eq!(answer.num_strata(), stratum_sizes.len());
    let n_total: usize = stratum_sizes.iter().sum();
    if n_total == 0 {
        return Estimate::new(0.0, 0.0).flag_degenerate();
    }
    let mut p_est = 0.0;
    let mut variance = 0.0;
    let mut degenerate = false;
    for (k, &n_k) in stratum_sizes.iter().enumerate() {
        if n_k == 0 {
            continue;
        }
        let sample = answer.stratum(k);
        let n = sample.len();
        if n == 0 {
            degenerate = true;
            continue;
        }
        let hits = sample.iter().filter(|t| predicate(t)).count();
        let p_k = hits as f64 / n as f64;
        let w = n_k as f64 / n_total as f64;
        p_est += w * p_k;
        if n > 1 {
            let fpc = 1.0 - n as f64 / n_k as f64;
            variance += w * w * fpc.max(0.0) * p_k * (1.0 - p_k) / (n - 1) as f64;
        }
    }
    let est = Estimate::new(p_est, variance.sqrt());
    if degenerate {
        est.flag_degenerate()
    } else {
        est
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reservoir::reservoir_sample;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn attr() -> AttrId {
        AttrId(0)
    }

    /// Two strata: values around 10 (N=900) and around 1000 (N=100).
    fn population() -> (Vec<Individual>, Vec<Individual>) {
        let common: Vec<Individual> = (0..900u64)
            .map(|i| Individual::new(i, vec![10 + (i % 5) as i64], 0))
            .collect();
        let rare: Vec<Individual> = (0..100u64)
            .map(|i| Individual::new(900 + i, vec![1000 + (i % 11) as i64], 0))
            .collect();
        (common, rare)
    }

    fn true_mean(groups: &[&[Individual]]) -> f64 {
        let all: Vec<f64> = groups
            .iter()
            .flat_map(|g| g.iter().map(|t| t.get(attr()) as f64))
            .collect();
        all.iter().sum::<f64>() / all.len() as f64
    }

    #[test]
    fn full_census_estimate_is_exact_with_zero_error() {
        let (common, rare) = population();
        let truth = true_mean(&[&common, &rare]);
        let answer = SsdAnswer::from_strata(vec![common, rare]);
        let est = stratified_mean(&answer, &[900, 100], attr());
        assert!((est.value - truth).abs() < 1e-9);
        assert!(est.std_error.abs() < 1e-9, "census has no sampling error");
    }

    #[test]
    fn stratified_estimate_is_accurate_from_small_sample() {
        let (common, rare) = population();
        let truth = true_mean(&[&common, &rare]);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        // only 20 + 20 samples
        let s1 = reservoir_sample(common.iter().cloned(), 20, &mut rng).0;
        let s2 = reservoir_sample(rare.iter().cloned(), 20, &mut rng).0;
        let answer = SsdAnswer::from_strata(vec![s1, s2]);
        let est = stratified_mean(&answer, &[900, 100], attr());
        let (lo, hi) = est.interval(3.0);
        assert!(
            lo <= truth && truth <= hi,
            "truth {truth} outside [{lo}, {hi}]"
        );
        // small per-stratum spread → tight interval
        assert!(
            est.std_error < 2.0,
            "std error too large: {}",
            est.std_error
        );
    }

    #[test]
    fn stratification_beats_srs_on_example1_style_population() {
        // the rare high-value stratum makes SRS noisy: compare standard
        // errors at equal sample size (the paper's Example 1 argument)
        let (common, rare) = population();
        let all: Vec<Individual> = common.iter().chain(&rare).cloned().collect();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let n = 40;
        // stratified: proportional-ish 36 / 4
        let s1 = reservoir_sample(common.iter().cloned(), 36, &mut rng).0;
        let s2 = reservoir_sample(rare.iter().cloned(), 4, &mut rng).0;
        let strat = stratified_mean(&SsdAnswer::from_strata(vec![s1, s2]), &[900, 100], attr());
        let srs = srs_mean(
            &reservoir_sample(all.iter().cloned(), n, &mut rng).0,
            1000,
            attr(),
        );
        assert!(
            strat.std_error < srs.std_error / 3.0,
            "stratification should slash the error: {} vs {}",
            strat.std_error,
            srs.std_error
        );
    }

    #[test]
    fn total_scales_mean_by_population() {
        let (common, rare) = population();
        let answer = SsdAnswer::from_strata(vec![common.clone(), rare.clone()]);
        let mean = stratified_mean(&answer, &[900, 100], attr());
        let total = stratified_total(&answer, &[900, 100], attr());
        assert!((total.value - 1000.0 * mean.value).abs() < 1e-6);
    }

    #[test]
    fn proportion_estimator_recovers_rates() {
        let (common, rare) = population();
        let answer = SsdAnswer::from_strata(vec![common, rare]);
        // the rare stratum is exactly 10% of the population
        let est = stratified_proportion(&answer, &[900, 100], |t| t.get(attr()) >= 1000);
        assert!((est.value - 0.1).abs() < 1e-9);
        assert!(est.std_error.abs() < 1e-9);
    }

    #[test]
    fn empty_answer_is_harmless() {
        let answer = SsdAnswer::empty(2);
        let est = stratified_mean(&answer, &[10, 20], attr());
        assert_eq!(est.value, 0.0);
        let p = stratified_proportion(&answer, &[10, 20], |_| true);
        assert_eq!(p.value, 0.0);
    }

    #[test]
    #[should_panic(expected = "stratum count mismatch")]
    fn mismatched_sizes_rejected() {
        stratified_mean(&SsdAnswer::empty(2), &[1], attr());
    }

    #[test]
    fn empty_stratum_flags_degenerate_instead_of_nan() {
        let (common, _) = population();
        // stratum 1 has population 100 but no sample at all
        let answer = SsdAnswer::from_strata(vec![common, Vec::new()]);
        let est = stratified_mean(&answer, &[900, 100], attr());
        assert!(est.degenerate, "missing stratum must be flagged");
        assert!(est.value.is_finite() && est.std_error.is_finite());
        let p = stratified_proportion(&answer, &[900, 100], |t| t.get(attr()) >= 1000);
        assert!(p.degenerate);
        assert!(p.value.is_finite() && p.std_error.is_finite());
        // fully populated designs stay unflagged
        let (common, rare) = population();
        let full = SsdAnswer::from_strata(vec![common, rare]);
        assert!(!stratified_mean(&full, &[900, 100], attr()).degenerate);
        // the degenerate flag propagates through the total estimator
        assert!(stratified_total(&answer, &[900, 100], attr()).degenerate);
    }
}
