//! Sample-size allocation across strata.
//!
//! The paper's introduction motivates stratified sampling as a way to
//! *reduce the sample size* while keeping the sample representative
//! (Example 1: rare over-70 users get their own stratum instead of
//! inflating a simple random sample). This module provides the classic
//! allocation rules used in survey design to pick the per-stratum
//! frequencies `f_k` of an SSD query:
//!
//! * **proportional** — `f_k ∝ N_k` (population share);
//! * **equal** — the same count per stratum (good for comparing strata);
//! * **Neyman** — `f_k ∝ N_k·S_k` (population share × in-stratum standard
//!   deviation), minimizing the variance of the stratified mean estimator
//!   for a fixed total sample size.
//!
//! All rules produce integer allocations that sum exactly to the
//! requested total (largest-remainder rounding) and clamp to stratum
//! populations.

use crate::formula::Formula;
use crate::ssd::{SsdQuery, StratumConstraint};
use stratmr_population::{AttrId, Individual};

/// How to split a total sample size over strata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Allocation {
    /// `f_k ∝ N_k`.
    Proportional,
    /// Equal counts per stratum.
    Equal,
    /// `f_k ∝ N_k · S_k` where `S_k` is the standard deviation of the
    /// given attribute within stratum `k` (Neyman optimal allocation).
    Neyman(AttrId),
}

/// Compute per-stratum counts for `total` samples over strata described
/// by `(population, std_dev)` pairs, using largest-remainder rounding,
/// clamped to stratum populations.
///
/// Returns one count per stratum, summing to `min(total, Σ N_k)`.
pub fn allocate(strata: &[(usize, f64)], total: usize, rule: Allocation) -> Vec<usize> {
    let m = strata.len();
    if m == 0 {
        return Vec::new();
    }
    let weights: Vec<f64> = match rule {
        Allocation::Proportional => strata.iter().map(|&(n, _)| n as f64).collect(),
        Allocation::Equal => strata.iter().map(|&(n, _)| f64::from(n > 0)).collect(),
        Allocation::Neyman(_) => strata.iter().map(|&(n, s)| n as f64 * s).collect(),
    };
    let mut weight_sum: f64 = weights.iter().sum();
    if weight_sum <= 0.0 {
        // degenerate (e.g. all-zero deviations): fall back to proportional
        return allocate(strata, total, Allocation::Proportional);
    }
    let available: usize = strata.iter().map(|&(n, _)| n).sum();
    let mut total = total.min(available);

    // iterative clamping: a stratum cannot supply more than N_k; excess
    // is redistributed over the remaining strata by weight
    let mut counts = vec![0usize; m];
    let mut open: Vec<usize> = (0..m).collect();
    loop {
        // fractional shares over the open strata
        let shares: Vec<f64> = open
            .iter()
            .map(|&k| total as f64 * weights[k] / weight_sum)
            .collect();
        // clamp any stratum whose share exceeds its population
        let clamped: Vec<usize> = open
            .iter()
            .zip(&shares)
            .filter(|&(&k, &s)| s > (strata[k].0 - counts[k]) as f64)
            .map(|(&k, _)| k)
            .collect();
        if clamped.is_empty() {
            // largest-remainder rounding of the final shares
            let mut floors: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
            let mut rem: Vec<(usize, f64)> = shares
                .iter()
                .enumerate()
                .map(|(i, s)| (i, s - s.floor()))
                .collect();
            rem.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
            let assigned: usize = floors.iter().sum();
            for &(i, _) in rem.iter().take(total - assigned) {
                floors[i] += 1;
            }
            for (&k, f) in open.iter().zip(floors) {
                counts[k] += f;
            }
            return counts;
        }
        for k in clamped {
            let take = strata[k].0 - counts[k];
            counts[k] += take;
            total -= take;
            weight_sum -= weights[k];
            open.retain(|&o| o != k);
        }
        if open.is_empty() || weight_sum <= 0.0 {
            return counts;
        }
    }
}

/// Build an SSD query from stratum formulas with frequencies allocated
/// by `rule` over the given population.
///
/// Population and (for Neyman) per-stratum standard deviations are
/// computed from `population`; strata with no members are dropped.
pub fn design_ssd(
    formulas: Vec<Formula>,
    total: usize,
    rule: Allocation,
    population: &[Individual],
) -> SsdQuery {
    let stats: Vec<(usize, f64)> = formulas
        .iter()
        .map(|f| stratum_stats(f, rule, population))
        .collect();
    let freqs = allocate(&stats, total, rule);
    SsdQuery::new(
        formulas
            .into_iter()
            .zip(freqs)
            .filter(|&(_, f)| f > 0)
            .map(|(formula, f)| StratumConstraint::new(formula, f))
            .collect(),
    )
}

fn stratum_stats(formula: &Formula, rule: Allocation, population: &[Individual]) -> (usize, f64) {
    let members = population.iter().filter(|t| formula.eval(t));
    match rule {
        Allocation::Neyman(attr) => {
            let values: Vec<f64> = members.map(|t| t.get(attr) as f64).collect();
            let n = values.len();
            if n == 0 {
                return (0, 0.0);
            }
            let mean = values.iter().sum::<f64>() / n as f64;
            let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
            (n, var.sqrt())
        }
        _ => (members.count(), 0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validity::{check_disjoint_static, StaticCheck};
    use stratmr_population::{AttrDef, Schema};

    #[test]
    fn proportional_allocation_sums_and_tracks_sizes() {
        let strata = [(100, 0.0), (300, 0.0), (600, 0.0)];
        let f = allocate(&strata, 100, Allocation::Proportional);
        assert_eq!(f.iter().sum::<usize>(), 100);
        assert_eq!(f, vec![10, 30, 60]);
    }

    #[test]
    fn largest_remainder_rounding_is_exact() {
        // shares 33.3 / 33.3 / 33.3 must round to 34/33/33 in some order
        let strata = [(500, 0.0), (500, 0.0), (500, 0.0)];
        let f = allocate(&strata, 100, Allocation::Proportional);
        assert_eq!(f.iter().sum::<usize>(), 100);
        assert!(f.iter().all(|&x| x == 33 || x == 34));
    }

    #[test]
    fn equal_allocation_ignores_sizes() {
        let strata = [(10_000, 0.0), (10, 0.0)];
        let f = allocate(&strata, 12, Allocation::Equal);
        assert_eq!(f, vec![6, 6]);
    }

    #[test]
    fn clamps_to_stratum_population_and_redistributes() {
        // equal would want 10+10, but stratum 1 has only 4 members
        let strata = [(100, 0.0), (4, 0.0)];
        let f = allocate(&strata, 20, Allocation::Equal);
        assert_eq!(f, vec![16, 4]);
        // total larger than the population: everything is taken
        let g = allocate(&strata, 1_000, Allocation::Proportional);
        assert_eq!(g, vec![100, 4]);
    }

    #[test]
    fn neyman_favors_high_variance_strata() {
        // same sizes, deviations 1 vs 9 → 10% vs 90%
        let strata = [(1_000, 1.0), (1_000, 9.0)];
        let f = allocate(&strata, 100, Allocation::Neyman(AttrId(0)));
        assert_eq!(f, vec![10, 90]);
    }

    #[test]
    fn neyman_with_zero_variance_falls_back() {
        let strata = [(100, 0.0), (300, 0.0)];
        let f = allocate(&strata, 40, Allocation::Neyman(AttrId(0)));
        assert_eq!(f, vec![10, 30]); // proportional fallback
    }

    #[test]
    fn empty_strata_list() {
        assert!(allocate(&[], 10, Allocation::Proportional).is_empty());
    }

    #[test]
    fn design_ssd_builds_valid_query() {
        let schema = Schema::new(vec![AttrDef::numeric("x", 0, 99)]);
        let x = schema.attr_id("x").unwrap();
        let pop: Vec<Individual> = (0..200u64)
            .map(|i| Individual::new(i, vec![(i % 100) as i64], 0))
            .collect();
        let q = design_ssd(
            vec![Formula::lt(x, 50), Formula::ge(x, 50)],
            30,
            Allocation::Proportional,
            &pop,
        );
        assert_eq!(q.total_frequency(), 30);
        assert_eq!(q.len(), 2);
        assert_eq!(
            check_disjoint_static(&q, &schema, 1_000),
            StaticCheck::Disjoint
        );
        assert!(q.validate_satisfiable(pop.iter()).is_ok());
    }

    #[test]
    fn design_ssd_neyman_shifts_to_spread_stratum() {
        let schema = Schema::new(vec![AttrDef::numeric("x", 0, 1000)]);
        let x = schema.attr_id("x").unwrap();
        // stratum A: constant value 10 (500 members); stratum B: spread
        // 100..600 (500 members)
        let mut pop = Vec::new();
        for i in 0..500u64 {
            pop.push(Individual::new(i, vec![10], 0));
        }
        for i in 0..500u64 {
            pop.push(Individual::new(500 + i, vec![100 + (i as i64)], 0));
        }
        let q = design_ssd(
            vec![Formula::lt(x, 50), Formula::ge(x, 50)],
            100,
            Allocation::Neyman(x),
            &pop,
        );
        // zero-variance stratum contributes nothing under Neyman
        assert_eq!(q.len(), 1);
        assert_eq!(q.stratum(0).frequency, 100);
    }
}
