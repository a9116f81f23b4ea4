//! Statistical helpers used to *verify* the sampling algorithms.
//!
//! The paper's correctness argument (§4.2.3 and Remark 1) implies two
//! testable facts: every equal-size subset is equally likely, and the
//! positions of selected tuples inside a sub-relation follow a
//! hypergeometric distribution. These helpers power the statistical unit
//! and property tests.

/// Natural log of the gamma function (Lanczos approximation, g = 7).
pub(crate) fn ln_gamma(x: f64) -> f64 {
    const COEFFS: [f64; 8] = [
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // reflection formula
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = 0.999_999_999_999_809_9_f64;
    for (i, &c) in COEFFS.iter().enumerate() {
        a += c / (x + i as f64 + 1.0);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// `ln C(n, k)`.
pub(crate) fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
}

/// Hypergeometric PMF: the probability of `y` successes in `x` draws
/// (without replacement) from a population of `r` containing `c`
/// successes — `C(c,y)·C(r−c, x−y) / C(r,x)`, the distribution of
/// Remark 1.
pub fn hypergeometric_pmf(r: u64, c: u64, x: u64, y: u64) -> f64 {
    if y > x || y > c || x - y > r - c {
        return 0.0;
    }
    (ln_choose(c, y) + ln_choose(r - c, x - y) - ln_choose(r, x)).exp()
}

/// Pearson chi-square statistic of observed counts against uniform
/// expectation.
pub fn chi2_uniform(observed: &[u64]) -> f64 {
    let total: u64 = observed.iter().sum();
    let expected = total as f64 / observed.len() as f64;
    observed
        .iter()
        .map(|&o| (o as f64 - expected).powi(2) / expected)
        .sum()
}

/// Pearson chi-square against explicit expected counts.
pub fn chi2_statistic(observed: &[u64], expected: &[f64]) -> f64 {
    assert_eq!(observed.len(), expected.len());
    observed
        .iter()
        .zip(expected)
        .filter(|&(_, &e)| e > 0.0)
        .map(|(&o, &e)| (o as f64 - e).powi(2) / e)
        .sum()
}

/// Approximate 99.9th-percentile critical value of the chi-square
/// distribution with `df` degrees of freedom (Wilson–Hilferty). Used so
/// statistical tests fail with probability ~0.1% per test under H0 —
/// and since all tests are seeded, a passing seed passes forever.
pub fn chi2_critical_999(df: usize) -> f64 {
    let df = df as f64;
    let z = 3.090_232; // Φ⁻¹(0.999)
    let t = 1.0 - 2.0 / (9.0 * df) + z * (2.0 / (9.0 * df)).sqrt();
    df * t.powi(3)
}

/// Half-width of the two-sided acceptance region for a Binomial(`trials`,
/// `p`) count: `z·σ + 0.5` (normal approximation with continuity
/// correction, `σ = sqrt(trials·p·(1−p))`). `z` is the explicit
/// tolerance in standard deviations — e.g. `z = 4` rejects a true
/// binomial with probability ≈ 6·10⁻⁵; since every statistical test in
/// this repo runs on explicit seeds, a passing seed passes forever.
pub(crate) fn binomial_two_sided_bound(trials: u64, p: f64, z: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    z * (trials as f64 * p * (1.0 - p)).sqrt() + 0.5
}

/// Two-sided binomial check: is `successes` out of `trials` within
/// `z` standard deviations of the expected `trials·p`?
pub fn binomial_within_bound(successes: u64, trials: u64, p: f64, z: f64) -> bool {
    let expected = trials as f64 * p;
    (successes as f64 - expected).abs() <= binomial_two_sided_bound(trials, p, z)
}

/// One-stop chi-square goodness-of-fit check: Pearson statistic of
/// `observed` against `expected` below the 99.9th-percentile critical
/// value at `observed.len() − 1` degrees of freedom.
pub fn chi2_gof_ok(observed: &[u64], expected: &[f64]) -> bool {
    chi2_statistic(observed, expected) < chi2_critical_999(observed.len() - 1)
}

/// Mann–Whitney U z-score of two samples (normal approximation with
/// tie correction and continuity correction).
///
/// Positive when `b` tends to exceed `a`, negative when `b` tends to
/// fall below it, ~0 when the samples are exchangeable. Used by the
/// benchmark comparator as a noise-aware shift test on timing
/// distributions: a large |z| means the two sample sets genuinely
/// moved apart rather than wobbling within their own spread. Returns
/// 0.0 when either sample is empty or when every value is tied (no
/// rank information — e.g. two identical deterministic sample sets).
pub fn mann_whitney_z(a: &[f64], b: &[f64]) -> f64 {
    let (n1, n2) = (a.len() as f64, b.len() as f64);
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    // pool and rank with average ranks for ties
    let mut pooled: Vec<(f64, bool)> = a
        .iter()
        .map(|&v| (v, false))
        .chain(b.iter().map(|&v| (v, true)))
        .collect();
    pooled.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap_or(std::cmp::Ordering::Equal));
    let n = pooled.len();
    let mut rank_sum_b = 0.0f64;
    let mut tie_term = 0.0f64; // Σ (t³ − t) over tie groups
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j < n && pooled[j].0 == pooled[i].0 {
            j += 1;
        }
        let t = (j - i) as f64;
        // ranks are 1-based; the tie group spans ranks i+1 ..= j
        let avg_rank = (i + 1 + j) as f64 / 2.0;
        for p in &pooled[i..j] {
            if p.1 {
                rank_sum_b += avg_rank;
            }
        }
        tie_term += t * t * t - t;
        i = j;
    }
    let u_b = rank_sum_b - n2 * (n2 + 1.0) / 2.0;
    let mean_u = n1 * n2 / 2.0;
    let n_tot = n1 + n2;
    let var_u = n1 * n2 / 12.0 * (n_tot + 1.0 - tie_term / (n_tot * (n_tot - 1.0)));
    if var_u <= 0.0 {
        return 0.0; // all values tied: no evidence of a shift
    }
    let diff = u_b - mean_u;
    // continuity correction toward zero
    let diff = if diff > 0.5 {
        diff - 0.5
    } else if diff < -0.5 {
        diff + 0.5
    } else {
        0.0
    };
    diff / var_u.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n-1)!
        close(ln_gamma(1.0), 0.0, 1e-10);
        close(ln_gamma(2.0), 0.0, 1e-10);
        close(ln_gamma(5.0), (24.0_f64).ln(), 1e-9);
        close(ln_gamma(11.0), (3_628_800.0_f64).ln(), 1e-8);
        // Γ(1/2) = sqrt(pi)
        close(ln_gamma(0.5), 0.5 * std::f64::consts::PI.ln(), 1e-9);
    }

    #[test]
    fn ln_choose_small_cases() {
        close(ln_choose(5, 2), (10.0_f64).ln(), 1e-9);
        close(ln_choose(10, 0), 0.0, 1e-9);
        close(ln_choose(10, 10), 0.0, 1e-9);
        assert_eq!(ln_choose(3, 5), f64::NEG_INFINITY);
        close(ln_choose(52, 5), (2_598_960.0_f64).ln(), 1e-8);
    }

    #[test]
    fn hypergeometric_sums_to_one() {
        let (r, c, x) = (30u64, 12u64, 7u64);
        let total: f64 = (0..=x).map(|y| hypergeometric_pmf(r, c, x, y)).sum();
        close(total, 1.0, 1e-9);
    }

    #[test]
    fn hypergeometric_known_value() {
        // drawing 2 from 5 with 3 successes: P(y=1) = C(3,1)C(2,1)/C(5,2) = 6/10
        close(hypergeometric_pmf(5, 3, 2, 1), 0.6, 1e-12);
        // impossible outcomes are zero
        assert_eq!(hypergeometric_pmf(5, 3, 2, 3), 0.0);
        close(hypergeometric_pmf(5, 1, 2, 0), 0.6, 1e-9); // C(1,0)C(4,2)/C(5,2)=6/10
    }

    #[test]
    fn chi2_uniform_zero_for_perfect_fit() {
        assert_eq!(chi2_uniform(&[10, 10, 10, 10]), 0.0);
        assert!(chi2_uniform(&[40, 0, 0, 0]) > 100.0);
    }

    #[test]
    fn chi2_critical_approximation_in_range() {
        // exact 0.999 quantiles: df=1 → 10.83, df=10 → 29.59, df=100 → 149.45
        let c1 = chi2_critical_999(1);
        assert!((9.0..13.0).contains(&c1), "{c1}");
        let c10 = chi2_critical_999(10);
        assert!((28.0..31.0).contains(&c10), "{c10}");
        let c100 = chi2_critical_999(100);
        assert!((147.0..152.0).contains(&c100), "{c100}");
    }

    #[test]
    fn chi2_statistic_skips_zero_expectation() {
        let stat = chi2_statistic(&[5, 0], &[5.0, 0.0]);
        assert_eq!(stat, 0.0);
    }

    #[test]
    fn binomial_bound_widens_with_z_and_trials() {
        let b1 = binomial_two_sided_bound(400, 0.5, 3.0);
        // σ = sqrt(400·0.25) = 10 → 3σ + 0.5 = 30.5
        close(b1, 30.5, 1e-9);
        assert!(binomial_two_sided_bound(400, 0.5, 4.0) > b1);
        assert!(binomial_two_sided_bound(1600, 0.5, 3.0) > b1);
        // degenerate probabilities leave only the continuity slack
        close(binomial_two_sided_bound(100, 0.0, 3.0), 0.5, 1e-12);
        close(binomial_two_sided_bound(100, 1.0, 3.0), 0.5, 1e-12);
    }

    #[test]
    fn binomial_check_accepts_expected_and_rejects_extreme() {
        assert!(binomial_within_bound(200, 400, 0.5, 3.0));
        assert!(binomial_within_bound(225, 400, 0.5, 3.0)); // 2.5σ
        assert!(!binomial_within_bound(260, 400, 0.5, 3.0)); // 6σ
        assert!(!binomial_within_bound(140, 400, 0.5, 3.0)); // −6σ
    }

    #[test]
    fn chi2_gof_accepts_good_fit_and_rejects_bad() {
        assert!(chi2_gof_ok(&[98, 102, 100, 100], &[100.0; 4]));
        assert!(!chi2_gof_ok(&[400, 0, 0, 0], &[100.0; 4]));
    }

    #[test]
    fn mann_whitney_zero_for_identical_and_degenerate_samples() {
        let a: Vec<f64> = (0..10).map(|i| i as f64).collect();
        assert_eq!(mann_whitney_z(&a, &a), 0.0, "identical samples");
        assert_eq!(mann_whitney_z(&[], &a), 0.0, "empty sample");
        assert_eq!(mann_whitney_z(&a, &[]), 0.0);
        // every value tied: variance collapses, no shift evidence
        assert_eq!(mann_whitney_z(&[5.0; 8], &[5.0; 8]), 0.0);
    }

    #[test]
    fn mann_whitney_detects_a_clean_shift() {
        let a: Vec<f64> = (0..12).map(|i| 100.0 + i as f64).collect();
        let b: Vec<f64> = a.iter().map(|v| v * 1.25).collect(); // +25%
        let z = mann_whitney_z(&a, &b);
        assert!(z > 3.0, "inflated sample must rank above baseline: z={z}");
        // symmetric: deflated sample gives the mirrored z
        close(mann_whitney_z(&b, &a), -z, 1e-12);
    }

    #[test]
    fn mann_whitney_ignores_small_wobble() {
        // interleaved samples differing by a hair: no significant shift
        let a: Vec<f64> = (0..10).map(|i| 10.0 + 2.0 * i as f64).collect();
        let b: Vec<f64> = (0..10).map(|i| 11.0 + 2.0 * i as f64).collect();
        assert!(mann_whitney_z(&a, &b).abs() <= 3.0);
    }

    #[test]
    fn mann_whitney_matches_hand_computed_u() {
        // a = [1,2], b = [3,4]: U_b = 4 (b wins every comparison),
        // mean U = 2, var = 2·2·5/12 = 5/3 → z = (4-2-0.5)/sqrt(5/3)
        let z = mann_whitney_z(&[1.0, 2.0], &[3.0, 4.0]);
        close(z, 1.5 / (5.0f64 / 3.0).sqrt(), 1e-12);
    }
}
