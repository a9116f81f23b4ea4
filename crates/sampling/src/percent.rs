//! Percentage-based stratified sampling.
//!
//! §1 of the paper: "a predefined number **(or percentage)** of
//! individuals is selected from each stratum". Absolute frequencies are
//! what the core algorithms consume; a percentage design needs the
//! stratum population sizes first. This module resolves a percentage
//! design into an absolute [`SsdQuery`] with one extra MapReduce
//! counting pass (the Figure 4 limits job over the design as a single
//! query), then runs MR-SQE.

use crate::limits::try_stratum_selection_limits;
use crate::sqe::{try_mr_sqe_on_splits, SqeRun};
use crate::sst::StratumSelection;
use stratmr_mapreduce::{Cluster, InputSplit, JobError, JobStats};
use stratmr_population::Individual;
use stratmr_query::{Formula, SsdQuery, StratumConstraint};

/// One stratum of a percentage-based design.
#[derive(Debug, Clone, PartialEq)]
pub struct PercentStratum {
    /// The stratum condition.
    pub formula: Formula,
    /// Percentage of the stratum to sample, in `(0, 100]`.
    pub percent: f64,
}

/// A stratified design whose frequencies are percentages of the stratum
/// populations.
#[derive(Debug, Clone, PartialEq)]
pub struct PercentSsdQuery {
    strata: Vec<PercentStratum>,
}

impl PercentSsdQuery {
    /// Build a percentage design.
    ///
    /// # Panics
    /// Panics if any percentage is outside `(0, 100]`.
    pub fn new(strata: Vec<PercentStratum>) -> Self {
        for s in &strata {
            assert!(
                s.percent > 0.0 && s.percent <= 100.0,
                "percentage {} out of (0, 100]",
                s.percent
            );
        }
        Self { strata }
    }

    /// The strata.
    pub fn strata(&self) -> &[PercentStratum] {
        &self.strata
    }
}

/// Resolve a percentage design to an absolute [`SsdQuery`] by counting
/// stratum sizes with one pass of the Figure 4 limits job. Frequencies
/// are rounded to the nearest integer, with a minimum of 1 for
/// non-empty strata.
pub fn resolve_percentages(
    cluster: &Cluster,
    splits: &[InputSplit<Individual>],
    query: &PercentSsdQuery,
    seed: u64,
) -> Result<(SsdQuery, JobStats), JobError> {
    // the design as one query: its Figure 4 limits are the stratum sizes
    let design = SsdQuery::new(
        query
            .strata
            .iter()
            .map(|s| StratumConstraint::new(s.formula.clone(), 0))
            .collect(),
    );
    let strata: Vec<StratumSelection> = (0..query.strata.len())
        .map(|k| StratumSelection::from_choices(&[Some(k)]))
        .collect();
    let filter = strata.iter().cloned().collect();
    let (limits, stats) = try_stratum_selection_limits(
        &cluster.named_or("percent-resolve"),
        splits,
        std::slice::from_ref(&design),
        Some(&filter),
        seed,
    )?;
    let constraints = query
        .strata
        .iter()
        .zip(&strata)
        .map(|(s, sel)| {
            let n = limits.get(sel).copied().unwrap_or(0);
            let f = if n == 0 {
                0
            } else {
                ((s.percent / 100.0 * n as f64).round() as usize).max(1)
            };
            StratumConstraint::new(s.formula.clone(), f)
        })
        .collect();
    Ok((SsdQuery::new(constraints), stats))
}

/// Result of a percentage-based sampling run.
#[derive(Debug, Clone)]
pub struct PercentRun {
    /// The absolute query the percentages resolved to.
    pub resolved: SsdQuery,
    /// The sampling result.
    pub run: SqeRun,
    /// Statistics of the counting pass.
    pub count_stats: JobStats,
}

/// Answer a percentage-based stratified design: one counting pass plus
/// one MR-SQE pass.
pub fn mr_sqe_percent(
    cluster: &Cluster,
    splits: &[InputSplit<Individual>],
    query: &PercentSsdQuery,
    seed: u64,
) -> Result<PercentRun, JobError> {
    let (resolved, count_stats) = resolve_percentages(cluster, splits, query, seed)?;
    let run = try_mr_sqe_on_splits(cluster, splits, &resolved, seed.wrapping_add(1))?;
    Ok(PercentRun {
        resolved,
        run,
        count_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::to_input_splits;
    use stratmr_population::{AttrDef, AttrId, Dataset, Placement, Schema};

    fn setup(n: usize) -> Vec<InputSplit<Individual>> {
        let schema = Schema::new(vec![AttrDef::numeric("x", 0, 99)]);
        let tuples = (0..n as u64)
            .map(|i| Individual::new(i, vec![(i % 100) as i64], 10))
            .collect();
        let data = Dataset::new(schema, tuples).distribute(3, 6, Placement::RoundRobin);
        to_input_splits(&data)
    }

    fn x() -> AttrId {
        AttrId(0)
    }

    #[test]
    fn percentages_resolve_to_stratum_shares() {
        let splits = setup(1000); // 500 below 50, 500 at or above
        let cluster = Cluster::new(3);
        let q = PercentSsdQuery::new(vec![
            PercentStratum {
                formula: Formula::lt(x(), 50),
                percent: 10.0,
            },
            PercentStratum {
                formula: Formula::ge(x(), 50),
                percent: 2.0,
            },
        ]);
        let (resolved, stats) = resolve_percentages(&cluster, &splits, &q, 1).unwrap();
        assert_eq!(resolved.stratum(0).frequency, 50); // 10% of 500
        assert_eq!(resolved.stratum(1).frequency, 10); // 2% of 500
        assert_eq!(stats.map_input_records, 1000);
    }

    #[test]
    fn end_to_end_percent_sampling() {
        let splits = setup(2000);
        let cluster = Cluster::new(3);
        let q = PercentSsdQuery::new(vec![PercentStratum {
            formula: Formula::lt(x(), 20),
            percent: 5.0,
        }]);
        let result = mr_sqe_percent(&cluster, &splits, &q, 7).unwrap();
        // 400 tuples below 20 → 5% = 20
        assert_eq!(result.resolved.stratum(0).frequency, 20);
        assert_eq!(result.run.answer.stratum(0).len(), 20);
        assert!(result.run.answer.satisfies(&result.resolved));
    }

    #[test]
    fn tiny_strata_round_up_to_one() {
        let splits = setup(1000);
        let cluster = Cluster::new(2);
        let q = PercentSsdQuery::new(vec![PercentStratum {
            formula: Formula::lt(x(), 1), // 10 members
            percent: 1.0,                 // 0.1 rounds to 0 → min 1
        }]);
        let (resolved, _) = resolve_percentages(&cluster, &splits, &q, 2).unwrap();
        assert_eq!(resolved.stratum(0).frequency, 1);
    }

    #[test]
    fn empty_stratum_resolves_to_zero() {
        let splits = setup(100);
        let cluster = Cluster::new(2);
        let q = PercentSsdQuery::new(vec![PercentStratum {
            formula: Formula::gt(x(), 10_000),
            percent: 50.0,
        }]);
        let (resolved, _) = resolve_percentages(&cluster, &splits, &q, 3).unwrap();
        assert_eq!(resolved.stratum(0).frequency, 0);
    }

    #[test]
    #[should_panic(expected = "out of (0, 100]")]
    fn invalid_percent_rejected() {
        PercentSsdQuery::new(vec![PercentStratum {
            formula: Formula::tautology(),
            percent: 0.0,
        }]);
    }
}
