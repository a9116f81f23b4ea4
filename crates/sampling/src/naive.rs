//! Naive MapReduce sampling (Figure 1, §4.2.1).
//!
//! Map partitions tuples by matching stratum constraint; reduce draws a
//! simple random sample per stratum. Correct but wasteful: **every**
//! tuple satisfying a stratum constraint crosses the network, and the
//! per-stratum selection is fully serialized in a single reducer. MR-SQE
//! (Figure 2) fixes both with a combiner; this baseline exists to measure
//! that difference.

use crate::reservoir::reservoir_sample;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use stratmr_mapreduce::{Cluster, Emitter, InputSplit, Job, JobError, JobStats, TaskCtx};
use stratmr_population::Individual;
use stratmr_query::{SsdAnswer, SsdQuery, StratumId};

/// The Figure 1 job: `map(null, t) → [(s_k, t)]`,
/// `reduce(s_k, [t…]) → SRS([t…], f_k)`.
pub struct NaiveSqeJob<'a> {
    query: &'a SsdQuery,
}

impl<'a> NaiveSqeJob<'a> {
    /// Build the job for one SSD query.
    pub fn new(query: &'a SsdQuery) -> Self {
        Self { query }
    }
}

impl Job for NaiveSqeJob<'_> {
    type Input = Individual;
    type Key = StratumId;
    type MapOut = Individual;
    type ReduceOut = Vec<Individual>;

    fn map(&self, _ctx: &TaskCtx, t: &Individual, out: &mut Emitter<StratumId, Individual>) {
        // strata are disjoint: at most one constraint matches
        if let Some(k) = self.query.matching_stratum(t) {
            out.emit(k, t.clone());
        }
    }

    fn reduce(&self, ctx: &TaskCtx, key: &StratumId, values: Vec<Individual>) -> Vec<Individual> {
        let f = self.query.stratum(*key).frequency;
        let mut rng = ChaCha8Rng::seed_from_u64(ctx.seed);
        reservoir_sample(values, f, &mut rng).0
    }

    fn input_bytes(&self, t: &Individual) -> u64 {
        t.payload_bytes as u64
    }

    fn pair_bytes(&self, _key: &StratumId, t: &Individual) -> u64 {
        crate::input::wire_bytes(t)
    }
}

/// Result of running a single-query sampler.
#[derive(Debug, Clone)]
pub struct SqeRun {
    /// The stratified sample.
    pub answer: SsdAnswer,
    /// MapReduce execution statistics.
    pub stats: JobStats,
}

/// Run the naive sampler on pre-built input splits.
pub fn naive_sqe_on_splits(
    cluster: &Cluster,
    splits: &[InputSplit<Individual>],
    query: &SsdQuery,
    seed: u64,
) -> Result<SqeRun, JobError> {
    let job = NaiveSqeJob::new(query);
    let out = cluster.named_or("naive-sqe").try_run(&job, splits, seed)?;
    let mut answer = SsdAnswer::empty(query.len());
    for (k, sample) in out.results {
        *answer.stratum_mut(k) = sample;
    }
    Ok(SqeRun {
        answer,
        stats: out.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{tests::dataset, to_input_splits};
    use stratmr_population::{AttrId, Placement};
    use stratmr_query::{Formula, StratumConstraint};

    fn two_strata_query() -> SsdQuery {
        let x = AttrId(0);
        SsdQuery::new(vec![
            StratumConstraint::new(Formula::lt(x, 50), 5),
            StratumConstraint::new(Formula::ge(x, 50), 7),
        ])
    }

    #[test]
    fn answer_satisfies_query() {
        let splits = to_input_splits(&dataset(1000).distribute(4, 8, Placement::RoundRobin));
        let cluster = Cluster::new(4);
        let q = two_strata_query();
        let run = naive_sqe_on_splits(&cluster, &splits, &q, 42).unwrap();
        assert!(run.answer.satisfies(&q));
        // everything matching a stratum was shuffled — the naive cost
        assert_eq!(run.stats.map_output_records, 1000);
    }

    #[test]
    fn deficient_stratum_returns_everything_available() {
        // x = 0..19
        let splits = to_input_splits(&dataset(20).distribute(2, 4, Placement::RoundRobin));
        let x = AttrId(0);
        let q = SsdQuery::new(vec![StratumConstraint::new(Formula::lt(x, 3), 10)]);
        let cluster = Cluster::new(2);
        let run = naive_sqe_on_splits(&cluster, &splits, &q, 1).unwrap();
        assert_eq!(run.answer.stratum(0).len(), 3);
        assert!(run.answer.satisfies_clamped(&q, Some(&[3])));
    }

    #[test]
    fn unmatched_strata_stay_empty() {
        let splits = to_input_splits(&dataset(100).distribute(2, 2, Placement::RoundRobin));
        let x = AttrId(0);
        let q = SsdQuery::new(vec![
            StratumConstraint::new(Formula::lt(x, 50), 5),
            StratumConstraint::new(Formula::gt(x, 1000), 5), // matches nothing
        ]);
        let cluster = Cluster::new(2);
        let run = naive_sqe_on_splits(&cluster, &splits, &q, 3).unwrap();
        assert_eq!(run.answer.stratum(0).len(), 5);
        assert!(run.answer.stratum(1).is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let splits = to_input_splits(&dataset(500).distribute(3, 6, Placement::RoundRobin));
        let cluster = Cluster::new(3);
        let q = two_strata_query();
        let a = naive_sqe_on_splits(&cluster, &splits, &q, 9).unwrap();
        let b = naive_sqe_on_splits(&cluster, &splits, &q, 9).unwrap();
        assert_eq!(a.answer, b.answer);
        let c = naive_sqe_on_splits(&cluster, &splits, &q, 10).unwrap();
        assert_ne!(a.answer, c.answer);
    }
}
