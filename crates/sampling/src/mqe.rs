//! MR-MQE — answering many SSD queries in one pass (§5.1).
//!
//! Running MR-SQE once per SSD would scan the dataset `n` times. MR-MQE
//! instead keys the intermediate pairs by `(Q_i, s_k)`: the map phase
//! emits one pair per query a tuple matches, and the combine/reduce
//! phases are exactly MR-SQE's, applied per `(query, stratum)` key.
//! Semantically equivalent to `n` independent MR-SQE runs, so it answers
//! the MSSD query — but oblivious to survey costs (no sharing
//! optimization); the paper uses it as the cost benchmark for MR-CPS and
//! as CPS's representative first phase.

use crate::obs::StratumCounters;
use crate::reservoir::SeededReservoir;
use crate::unified::{unified_sampler, IntermediateSample};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use stratmr_mapreduce::{Cluster, CombineJob, Emitter, InputSplit, JobError, JobStats, TaskCtx};
use stratmr_population::Individual;
use stratmr_query::{MssdAnswer, SsdAnswer, SsdQuery, StratumId, StratumMatcher};
use stratmr_telemetry::Registry;

/// Intermediate key: `(query index, stratum index)`.
pub type QueryStratum = (usize, StratumId);

/// The MR-MQE job over a set of SSD queries.
///
/// `exclusions[i]` (optional) is a set of individual ids that must not be
/// sampled for query `i` — used by MR-CPS's residual phase to top up
/// answers without duplicating already-selected individuals.
pub struct MqeJob<'a> {
    queries: &'a [SsdQuery],
    matchers: Vec<StratumMatcher<'a>>,
    exclusions: Option<&'a [HashSet<u64>]>,
    counters: Option<Vec<StratumCounters>>,
}

impl<'a> MqeJob<'a> {
    /// Build the job for a set of SSD queries, compiling their stratum
    /// matchers.
    pub fn new(queries: &'a [SsdQuery]) -> Self {
        Self {
            queries,
            matchers: StratumMatcher::all(queries),
            exclusions: None,
            counters: None,
        }
    }

    /// Exclude, per query, individuals that must not be selected.
    ///
    /// # Panics
    /// Panics if `exclusions.len() != queries.len()`.
    pub fn with_exclusions(mut self, exclusions: &'a [HashSet<u64>]) -> Self {
        assert_eq!(exclusions.len(), self.queries.len());
        self.exclusions = Some(exclusions);
        self
    }

    /// Emit `mqe.q<i>.s<k>.{requested,candidates,sampled,rejected}`
    /// counters into `registry`, one quadruple per `(query, stratum)`
    /// pair.
    pub fn with_telemetry(mut self, registry: &Registry) -> Self {
        self.counters = Some(
            self.queries
                .iter()
                .enumerate()
                .map(|(i, q)| {
                    let counters =
                        StratumCounters::per_stratum(registry, &format!("mqe.q{i}"), q.len());
                    for k in 0..q.len() {
                        counters.request(k, q.stratum(k).frequency as u64);
                    }
                    counters
                })
                .collect(),
        );
        self
    }
}

impl CombineJob for MqeJob<'_> {
    type Input = Individual;
    type Key = QueryStratum;
    type MapOut = Individual;
    type Acc = SeededReservoir<Individual>;
    type CombOut = IntermediateSample<Individual>;
    type ReduceOut = Vec<Individual>;

    fn map(&self, _ctx: &TaskCtx, t: &Individual, out: &mut Emitter<QueryStratum, Individual>) {
        for (i, m) in self.matchers.iter().enumerate() {
            if let Some(ex) = self.exclusions {
                if ex[i].contains(&t.id) {
                    continue;
                }
            }
            if let Some(k) = m.matching_stratum(t) {
                if let Some(c) = &self.counters {
                    c[i].candidate(k);
                }
                out.emit((i, k), t.clone());
            }
        }
    }

    fn start(&self, ctx: &TaskCtx, key: &QueryStratum) -> Self::Acc {
        SeededReservoir::new(self.queries[key.0].stratum(key.1).frequency, ctx.seed)
    }

    fn observe(&self, acc: &mut Self::Acc, t: Individual) {
        acc.observe(t);
    }

    fn finish(&self, acc: Self::Acc) -> IntermediateSample<Individual> {
        acc.finish()
    }

    fn reduce(
        &self,
        ctx: &TaskCtx,
        key: &QueryStratum,
        values: Vec<IntermediateSample<Individual>>,
    ) -> Vec<Individual> {
        let f = self.queries[key.0].stratum(key.1).frequency;
        let mut rng = ChaCha8Rng::seed_from_u64(ctx.seed);
        let seen: u64 = values.iter().map(|s| s.drawn_from as u64).sum();
        let sample = unified_sampler(values, f, &mut rng);
        if let Some(c) = &self.counters {
            c[key.0].reduced(key.1, sample.len() as u64, seen);
        }
        sample
    }

    fn input_bytes(&self, t: &Individual) -> u64 {
        t.payload_bytes as u64
    }

    fn comb_bytes(&self, _key: &QueryStratum, s: &IntermediateSample<Individual>) -> u64 {
        s.sample.iter().map(crate::input::wire_bytes).sum::<u64>() + 16
    }
}

/// Result of an MR-MQE run.
#[derive(Debug, Clone)]
pub struct MqeRun {
    /// One answer per SSD query.
    pub answer: MssdAnswer,
    /// MapReduce execution statistics.
    pub stats: JobStats,
}

/// Run MR-MQE on pre-built input splits, with optional per-query
/// exclusion sets. Scheduling failures come back as [`JobError`].
pub fn try_mr_mqe_on_splits(
    cluster: &Cluster,
    splits: &[InputSplit<Individual>],
    queries: &[SsdQuery],
    exclusions: Option<&[HashSet<u64>]>,
    seed: u64,
) -> Result<MqeRun, JobError> {
    let cluster = cluster.named_or("mqe");
    let _span = cluster.telemetry().map(|t| t.span("mqe.run"));
    let mut job = MqeJob::new(queries);
    if let Some(ex) = exclusions {
        job = job.with_exclusions(ex);
    }
    if let Some(registry) = cluster.telemetry() {
        job = job.with_telemetry(registry);
    }
    let out = cluster.try_run_with_combiner(&job, splits, seed)?;
    let mut answers: Vec<SsdAnswer> = queries.iter().map(|q| SsdAnswer::empty(q.len())).collect();
    for ((i, k), sample) in out.results {
        *answers[i].stratum_mut(k) = sample;
    }
    Ok(MqeRun {
        answer: MssdAnswer::new(answers),
        stats: out.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::to_input_splits;
    use crate::sqe::try_mr_sqe_on_splits;
    use stratmr_population::{AttrDef, AttrId, Dataset, Placement, Schema};
    use stratmr_query::{Formula, StratumConstraint};

    fn dataset(n: usize) -> Dataset {
        let schema = Schema::new(vec![AttrDef::numeric("x", 0, 99)]);
        let tuples = (0..n as u64)
            .map(|i| Individual::new(i, vec![(i % 100) as i64], 1000))
            .collect();
        Dataset::new(schema, tuples)
    }

    fn queries() -> Vec<SsdQuery> {
        let x = AttrId(0);
        vec![
            SsdQuery::new(vec![
                StratumConstraint::new(Formula::lt(x, 50), 4),
                StratumConstraint::new(Formula::ge(x, 50), 6),
            ]),
            SsdQuery::new(vec![
                StratumConstraint::new(Formula::lt(x, 20), 3),
                StratumConstraint::new(Formula::between(x, 20, 79), 5),
                StratumConstraint::new(Formula::ge(x, 80), 2),
            ]),
        ]
    }

    #[test]
    fn every_query_is_satisfied() {
        let splits = to_input_splits(&dataset(2000).distribute(4, 8, Placement::RoundRobin));
        let cluster = Cluster::new(4);
        let qs = queries();
        let run = try_mr_mqe_on_splits(&cluster, &splits, &qs, None, 5).unwrap();
        for (i, q) in qs.iter().enumerate() {
            assert!(run.answer.answer(i).satisfies(q), "query {i} unsatisfied");
        }
    }

    #[test]
    fn single_pass_scans_data_once() {
        let splits = to_input_splits(&dataset(1000).distribute(2, 4, Placement::RoundRobin));
        let cluster = Cluster::new(2);
        let qs = queries();
        let run = try_mr_mqe_on_splits(&cluster, &splits, &qs, None, 5).unwrap();
        // one scan: map input records equals the dataset size, even with
        // two queries (each tuple emits up to 2 pairs instead)
        assert_eq!(run.stats.map_input_records, 1000);
        assert_eq!(run.stats.map_output_records, 2000);
    }

    #[test]
    fn equivalent_to_independent_sqe_runs_statistically() {
        // Same stratum constraint as a solo SQE run: answer sizes match.
        let splits = to_input_splits(&dataset(800).distribute(3, 6, Placement::RoundRobin));
        let cluster = Cluster::new(3);
        let qs = queries();
        let mqe = try_mr_mqe_on_splits(&cluster, &splits, &qs, None, 8).unwrap();
        for (i, q) in qs.iter().enumerate() {
            let solo = try_mr_sqe_on_splits(&cluster, &splits, q, 8).unwrap();
            for k in 0..q.len() {
                assert_eq!(
                    mqe.answer.answer(i).stratum(k).len(),
                    solo.answer.stratum(k).len()
                );
            }
        }
    }

    #[test]
    fn telemetry_counts_per_query_strata() {
        use stratmr_telemetry::Registry;
        let registry = Registry::new();
        let splits = to_input_splits(&dataset(1000).distribute(2, 4, Placement::RoundRobin));
        let cluster = Cluster::new(2).with_telemetry(registry.clone());
        let qs = queries();
        let run = try_mr_mqe_on_splits(&cluster, &splits, &qs, None, 5).unwrap();
        let snap = registry.snapshot();
        let mut candidates_total = 0;
        for (i, q) in qs.iter().enumerate() {
            for k in 0..q.len() {
                let sampled = snap.counter(&format!("mqe.q{i}.s{k}.sampled"));
                let rejected = snap.counter(&format!("mqe.q{i}.s{k}.rejected"));
                let candidates = snap.counter(&format!("mqe.q{i}.s{k}.candidates"));
                assert_eq!(sampled, run.answer.answer(i).stratum(k).len() as u64);
                assert_eq!(candidates, sampled + rejected);
                candidates_total += candidates;
            }
        }
        // one emitted pair per (tuple, matching query)
        assert_eq!(candidates_total, snap.counter("mr.map.output_records"));
        assert_eq!(snap.span_calls("mqe.run"), 1);
        assert_eq!(snap.span_calls("mqe.run/mr.job"), 1);
    }

    #[test]
    fn exclusions_are_respected() {
        let data = dataset(200).distribute(2, 4, Placement::RoundRobin);
        let cluster = Cluster::new(2);
        let x = AttrId(0);
        let qs = vec![
            SsdQuery::new(vec![StratumConstraint::new(Formula::lt(x, 50), 10)]),
            SsdQuery::new(vec![StratumConstraint::new(Formula::lt(x, 50), 10)]),
        ];
        // exclude ids 0..80 for query 0 only
        let ex0: HashSet<u64> = (0..80).collect();
        let exclusions = vec![ex0.clone(), HashSet::new()];
        let splits = to_input_splits(&data);
        let run = try_mr_mqe_on_splits(&cluster, &splits, &qs, Some(&exclusions), 3).unwrap();
        assert!(run.answer.answer(0).iter().all(|t| !ex0.contains(&t.id)));
        assert_eq!(run.answer.answer(0).len(), 10);
        assert_eq!(run.answer.answer(1).len(), 10);
    }

    #[test]
    fn sharing_between_independent_answers_is_rare() {
        // MR-MQE selects independently per query: overlap happens only by
        // chance. With 10 of 100 eligible individuals per query, expected
        // overlap is ~1 individual.
        let splits = to_input_splits(&dataset(100).distribute(2, 4, Placement::RoundRobin));
        let cluster = Cluster::new(2);
        let x = AttrId(0);
        let qs = vec![
            SsdQuery::new(vec![StratumConstraint::new(Formula::lt(x, 100), 10)]),
            SsdQuery::new(vec![StratumConstraint::new(Formula::lt(x, 100), 10)]),
        ];
        let mut shared_total = 0usize;
        let runs = 50;
        for s in 0..runs {
            let run = try_mr_mqe_on_splits(&cluster, &splits, &qs, None, s).unwrap();
            let hist = run.answer.sharing_histogram(2);
            shared_total += hist[1];
        }
        let avg = shared_total as f64 / runs as f64;
        assert!(
            (0.2..3.0).contains(&avg),
            "expected ~1 shared individual on average, got {avg}"
        );
    }
}
