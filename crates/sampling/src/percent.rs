//! Percentage-based stratified sampling.
//!
//! §1 of the paper: "a predefined number **(or percentage)** of
//! individuals is selected from each stratum". Absolute frequencies are
//! what the core algorithms consume; a percentage design needs the
//! stratum population sizes first. This module resolves a percentage
//! design into an absolute [`SsdQuery`] with one extra MapReduce
//! counting pass, then runs MR-SQE.

use crate::sqe::{try_mr_sqe_on_splits, SqeRun};
use stratmr_mapreduce::{Cluster, CombineJob, Emitter, InputSplit, JobError, JobStats, TaskCtx};
use stratmr_population::Individual;
use stratmr_query::{Formula, SsdQuery, StratumConstraint, StratumId};

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

/// The counting pass: `map(t) → (k, 1)` for the stratum `t` satisfies,
/// sum in combiner and reducer.
struct CountJob<'a> {
    strata: &'a [PercentStratum],
}

impl CombineJob for CountJob<'_> {
    type Input = Individual;
    type Key = StratumId;
    type MapOut = u64;
    type Acc = u64;
    type CombOut = u64;
    type ReduceOut = u64;
    type Side = ();

    fn map(&self, _ctx: &TaskCtx, t: &Individual, out: &mut Emitter<StratumId, u64>) {
        if let Some(k) = self.strata.iter().position(|s| s.formula.eval(t)) {
            out.emit(k, 1);
        }
    }

    fn start(&self, _ctx: &TaskCtx, _key: &StratumId) -> u64 {
        0
    }

    fn observe(&self, acc: &mut u64, value: u64) {
        *acc += value;
    }

    fn finish(&self, acc: u64) -> u64 {
        acc
    }

    fn reduce(&self, _ctx: &TaskCtx, _key: &StratumId, values: Vec<u64>) -> u64 {
        values.into_iter().sum()
    }

    fn input_bytes(&self, t: &Individual) -> u64 {
        t.payload_bytes as u64
    }

    fn comb_bytes(&self, _key: &StratumId, _v: &u64) -> u64 {
        16
    }
}

/// Resolve a percentage design to an absolute [`SsdQuery`] by counting
/// stratum sizes with one MapReduce pass. Frequencies are rounded to the
/// nearest integer, with a minimum of 1 for non-empty strata.
pub fn resolve_percentages(
    cluster: &Cluster,
    splits: &[InputSplit<Individual>],
    query: &PercentSsdQuery,
    seed: u64,
) -> Result<(SsdQuery, JobStats), JobError> {
    let job = CountJob {
        strata: &query.strata,
    };
    let out = cluster
        .named_or("percent-resolve")
        .try_run_with_combiner(&job, splits, seed)?;
    let mut counts = vec![0u64; query.strata.len()];
    for (k, c) in out.results {
        counts[k] = c;
    }
    let constraints = query
        .strata
        .iter()
        .zip(&counts)
        .map(|(s, &n)| {
            let f = if n == 0 {
                0
            } else {
                ((s.percent / 100.0 * n as f64).round() as usize).max(1)
            };
            StratumConstraint::new(s.formula.clone(), f)
        })
        .collect();
    Ok((SsdQuery::new(constraints), out.stats))
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
