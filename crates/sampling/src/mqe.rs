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
use crate::rows::{RowId, RowSampler, Strata};
use crate::tally::SelectionSink;
use std::collections::HashSet;
use std::marker::PhantomData;
use stratmr_mapreduce::{Cluster, Emitter, InputSplit, JobError, JobStats};
use stratmr_population::Individual;
use stratmr_query::{MssdAnswer, SelectionMatcher, SsdAnswer, SsdQuery, StratumId};

/// Intermediate key: `(query index, stratum index)`.
pub(crate) type QueryStratum = (usize, StratumId);

/// The MR-MQE job's strata over a set of SSD queries: one key per
/// `(query, stratum)`.
///
/// `exclusions[i]` (optional) is a set of individual ids that must not be
/// sampled for query `i`.
///
/// `S` is the map task's [`SelectionSink`]: every tuple's per-query
/// strata (its selection `σ(t)`) are handed to it as the scan finds
/// them. The plain job (`S = ()`) drops them at compile time; MR-CPS's
/// first scan interns them into a [`crate::tally::SigmaTally`].
struct MqeJob<'a, S> {
    queries: &'a [SsdQuery],
    matcher: &'a SelectionMatcher<'a>,
    /// `offsets[i]`: the dense slot of query `i`'s first stratum; the
    /// last entry is the number of `(query, stratum)` keys.
    offsets: Vec<usize>,
    exclusions: Option<&'a [HashSet<u64>]>,
    /// `mqe.q<i>.s<k>.{requested,candidates,sampled,rejected}`, one
    /// quadruple per `(query, stratum)`.
    counters: Option<Vec<StratumCounters>>,
    sink: PhantomData<fn() -> S>,
}

impl<S: SelectionSink> Strata for MqeJob<'_, S> {
    type Key = QueryStratum;
    type Side = S;
    type Pick = Individual;

    fn map(&self, t: &Individual, row: RowId, out: &mut Emitter<QueryStratum, RowId, S>) {
        // only the plain job takes exclusions, so a sink sees every query
        let selection = self.matcher.for_each_stratum(t, |i, k| {
            if let Some(ex) = self.exclusions {
                if ex[i].contains(&t.id) {
                    return;
                }
            }
            out.side_mut().note(i, k);
            if let Some(k) = k {
                if let Some(c) = &self.counters {
                    c[i].candidate(k);
                }
                out.emit((i, k), row);
            }
        });
        out.side_mut().end_row(self.matcher.len(), selection);
    }

    fn frequency(&self, key: &QueryStratum) -> usize {
        self.queries[key.0].stratum(key.1).frequency
    }

    fn reduced(&self, key: &QueryStratum, sampled: u64, seen: u64) {
        if let Some(c) = &self.counters {
            c[key.0].reduced(key.1, sampled, seen);
        }
    }

    fn side_bytes(&self, side: &S) -> u64 {
        side.side_bytes()
    }

    fn key_slots(&self) -> usize {
        self.offsets.last().copied().unwrap_or(0)
    }

    #[inline]
    fn key_slot(&self, key: &QueryStratum) -> usize {
        self.offsets[key.0] + key.1
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
///
/// # Panics
/// Panics if `exclusions` is given and its length is not `queries.len()`.
pub fn try_mr_mqe_on_splits(
    cluster: &Cluster,
    splits: &[InputSplit<Individual>],
    queries: &[SsdQuery],
    exclusions: Option<&[HashSet<u64>]>,
    seed: u64,
) -> Result<MqeRun, JobError> {
    if let Some(ex) = exclusions {
        assert_eq!(ex.len(), queries.len());
    }
    let matcher = SelectionMatcher::new(queries);
    run_job::<()>(cluster, splits, queries, &matcher, exclusions, seed).map(|(run, _)| run)
}

/// MR-MQE over `queries`, looked up through `matcher` (compiled for
/// them), handing every map task's tuple selections `σ(t)` to a sink
/// `S`. With `S = SigmaTally` (one per map task; its count table is
/// charged as side bytes) this is MR-CPS's first scan: the answer and
/// statistics of [`try_mr_mqe_on_splits`] (same keys, seeds and shuffle
/// bytes), plus the tallies in split order.
pub(crate) fn run_job<S: SelectionSink>(
    cluster: &Cluster,
    splits: &[InputSplit<Individual>],
    queries: &[SsdQuery],
    matcher: &SelectionMatcher<'_>,
    exclusions: Option<&[HashSet<u64>]>,
    seed: u64,
) -> Result<(MqeRun, Vec<S>), JobError> {
    let cluster = cluster.named_or("mqe");
    let _span = cluster.telemetry().map(|t| t.span("mqe.run"));
    let job = MqeJob {
        queries,
        matcher,
        offsets: std::iter::once(0)
            .chain(queries.iter().scan(0, |end, q| {
                *end += q.len();
                Some(*end)
            }))
            .collect(),
        exclusions,
        counters: cluster.telemetry().map(|r| {
            let per_query = |(i, q): (usize, &SsdQuery)| {
                let freqs = q.constraints().iter().map(|s| s.frequency);
                StratumCounters::per_stratum(r, &format!("mqe.q{i}"), freqs)
            };
            queries.iter().enumerate().map(per_query).collect()
        }),
        sink: PhantomData,
    };
    let out = RowSampler::new(splits, job).run(&cluster, seed)?;
    let mut answers: Vec<SsdAnswer> = queries.iter().map(|q| SsdAnswer::empty(q.len())).collect();
    for ((i, k), sample) in out.results {
        *answers[i].stratum_mut(k) = sample;
    }
    let run = MqeRun {
        answer: MssdAnswer::new(answers),
        stats: out.stats,
    };
    Ok((run, out.sides))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{tests::dataset, to_input_splits};
    use crate::sqe::try_mr_sqe_on_splits;
    use stratmr_population::{AttrId, Placement};
    use stratmr_query::{Formula, StratumConstraint};

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
    fn joint_grid_and_fallback_tally_alike() {
        use crate::tally::{SelectionTable, SigmaTally};
        let splits = to_input_splits(&dataset(1500).distribute(3, 7, Placement::RoundRobin));
        let fast = queries();
        // stratum 1 of query 1 as an equivalent disjunction: no grid
        let mut slow = queries();
        let strata: Vec<StratumConstraint> = slow[1]
            .constraints()
            .iter()
            .enumerate()
            .map(|(k, s)| {
                let f = if k == 1 {
                    Formula::between(AttrId(0), 20, 49).or(Formula::between(AttrId(0), 50, 79))
                } else {
                    s.formula.clone()
                };
                StratumConstraint::new(f, s.frequency)
            })
            .collect();
        slow[1] = SsdQuery::new(strata);
        let (fast_matcher, slow_matcher) =
            (SelectionMatcher::new(&fast), SelectionMatcher::new(&slow));
        assert!(fast_matcher.is_joint());
        assert!(!slow_matcher.is_joint());
        let cluster = Cluster::new(3);
        let tallied = |queries, matcher| {
            run_job::<SigmaTally>(&cluster, &splits, queries, matcher, None, 9).unwrap()
        };
        let (a, a_sides) = tallied(&fast, &fast_matcher);
        let (b, b_sides) = tallied(&slow, &slow_matcher);
        assert_eq!(a.answer, b.answer);
        assert_eq!(a.stats.side_bytes, b.stats.side_bytes);
        let (a_table, a_rows) = SelectionTable::merge(a_sides);
        let (b_table, b_rows) = SelectionTable::merge(b_sides);
        // same global ids, counts and per-row ids
        assert_eq!(a_rows, b_rows);
        assert_eq!(a_table.len(), b_table.len());
        assert!(a_table.len() > 3);
        for id in 0..a_table.len() as u32 {
            assert_eq!(a_table.selection(id), b_table.selection(id));
            assert_eq!(a_table.count(id), b_table.count(id));
        }
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
