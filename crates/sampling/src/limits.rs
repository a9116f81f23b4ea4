//! Stratum-selection limits `L(σ)` via MapReduce (Figure 4, §5.2.5.1).
//!
//! The upper-bound constraints of the CPS integer program need, for each
//! relevant selection σ, the number of tuples of the whole dataset that
//! satisfy it: `L(σ) = F(R, σ)`. Figure 4's program computes these counts
//! scalably: `map(null, t) → (σ(t), 1)`, reduce sums. We additionally
//! let the map filter against the relevant set `[[Q]]*`, since only
//! relevant selections appear in the program.
//!
//! The job also interns every tuple's `σ(t)` into a per-task
//! [`SigmaTally`], so MR-CPS's later jobs can look selections up by row
//! under the paper's three-job schedule too. The tally charges no side
//! bytes: its counts already cross this job's shuffle.

use std::collections::{HashMap, HashSet};
use stratmr_mapreduce::{
    Cluster, CombineJob, Emitter, InputSplit, JobError, JobOutput, JobStats, TaskCtx,
};
use stratmr_population::Individual;
use stratmr_query::{SelectionMatcher, SsdQuery};

use crate::sst::StratumSelection;
use crate::tally::SigmaTally;

/// The Figure 4 counting job: every selection occurring in the data, or
/// only those in `filter` (the relevant ones).
pub(crate) struct LimitsJob<'a> {
    matcher: &'a SelectionMatcher<'a>,
    filter: Option<&'a HashSet<StratumSelection>>,
}

impl CombineJob for LimitsJob<'_> {
    type Input = Individual;
    type Key = StratumSelection;
    type MapOut = u64;
    type Acc = u64;
    type CombOut = u64;
    type ReduceOut = u64;
    type Side = SigmaTally;

    fn map(
        &self,
        _ctx: &TaskCtx,
        t: &Individual,
        out: &mut Emitter<StratumSelection, u64, SigmaTally>,
    ) {
        let sel = StratumSelection::of(t, self.matcher);
        out.side_mut().record(&sel);
        if let Some(filter) = self.filter {
            if !filter.contains(&sel) {
                return;
            }
        }
        out.emit(sel, 1);
    }

    fn start(&self, _ctx: &TaskCtx, _key: &StratumSelection) -> u64 {
        0
    }

    fn observe(&self, acc: &mut u64, value: u64) {
        *acc += value;
    }

    fn finish(&self, acc: u64) -> u64 {
        acc
    }

    fn reduce(&self, _ctx: &TaskCtx, _key: &StratumSelection, values: Vec<u64>) -> u64 {
        values.into_iter().sum()
    }

    fn input_bytes(&self, t: &Individual) -> u64 {
        t.payload_bytes as u64
    }

    fn comb_bytes(&self, key: &StratumSelection, _v: &u64) -> u64 {
        4 * key.n_queries() as u64 + 8
    }
}

/// Compute `L(σ)` for every selection in `filter` (or all occurring
/// selections when `filter` is `None`). Scheduling failures come back
/// as [`JobError`].
pub fn try_stratum_selection_limits(
    cluster: &Cluster,
    splits: &[InputSplit<Individual>],
    queries: &[SsdQuery],
    filter: Option<&HashSet<StratumSelection>>,
    seed: u64,
) -> Result<(HashMap<StratumSelection, u64>, JobStats), JobError> {
    let matcher = SelectionMatcher::new(queries);
    let out = limits_tallied(cluster, splits, &matcher, filter, seed)?;
    Ok((out.results.into_iter().collect(), out.stats))
}

/// The Figure 4 job's output over the queries `matcher` was compiled
/// for, including every map task's σ tally in split order.
pub(crate) fn limits_tallied(
    cluster: &Cluster,
    splits: &[InputSplit<Individual>],
    matcher: &SelectionMatcher<'_>,
    filter: Option<&HashSet<StratumSelection>>,
    seed: u64,
) -> Result<JobOutput<StratumSelection, u64, SigmaTally>, JobError> {
    cluster
        .named_or("limits")
        .try_run_with_combiner(&LimitsJob { matcher, filter }, splits, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::to_input_splits;
    use crate::tally::SelectionTable;
    use stratmr_population::{AttrDef, AttrId, Dataset, Placement, Schema};
    use stratmr_query::{Formula, StratumConstraint};

    fn setup() -> (Vec<InputSplit<Individual>>, Vec<SsdQuery>) {
        let schema = Schema::new(vec![AttrDef::numeric("x", 0, 99)]);
        let tuples = (0..100u64)
            .map(|i| Individual::new(i, vec![i as i64], 10))
            .collect();
        let data = Dataset::new(schema, tuples).distribute(3, 6, Placement::RoundRobin);
        let x = AttrId(0);
        let queries = vec![
            SsdQuery::new(vec![
                StratumConstraint::new(Formula::lt(x, 50), 1),
                StratumConstraint::new(Formula::ge(x, 50), 1),
            ]),
            SsdQuery::new(vec![StratumConstraint::new(Formula::lt(x, 20), 1)]),
        ];
        (to_input_splits(&data), queries)
    }

    #[test]
    fn counts_match_ground_truth() {
        let (splits, queries) = setup();
        let cluster = Cluster::new(3);
        let (limits, stats) =
            try_stratum_selection_limits(&cluster, &splits, &queries, None, 1).unwrap();
        // three populated selections: (s0, s0) = x<20 → 20 tuples,
        // (s0, ·) = 20..49 → 30 tuples, (s1, ·) = 50..99 → 50 tuples.
        assert_eq!(limits.len(), 3);
        let sel_a = StratumSelection::from_choices(&[Some(0), Some(0)]);
        let sel_b = StratumSelection::from_choices(&[Some(0), None]);
        let sel_c = StratumSelection::from_choices(&[Some(1), None]);
        assert_eq!(limits[&sel_a], 20);
        assert_eq!(limits[&sel_b], 30);
        assert_eq!(limits[&sel_c], 50);
        assert_eq!(stats.map_input_records, 100);
    }

    #[test]
    fn filter_restricts_output() {
        let (splits, queries) = setup();
        let cluster = Cluster::new(3);
        let want: HashSet<StratumSelection> =
            [StratumSelection::from_choices(&[Some(1), None])].into();
        let (limits, stats) =
            try_stratum_selection_limits(&cluster, &splits, &queries, Some(&want), 1).unwrap();
        assert_eq!(limits.len(), 1);
        assert_eq!(
            limits[&StratumSelection::from_choices(&[Some(1), None])],
            50
        );
        // filtering happens map-side: fewer intermediate pairs
        assert_eq!(stats.map_output_records, 50);
    }

    #[test]
    fn side_tallies_hold_the_keyed_counts() {
        let (splits, queries) = setup();
        let want: HashSet<StratumSelection> =
            [StratumSelection::from_choices(&[Some(0), None])].into();
        for filter in [None, Some(&want)] {
            let matcher = SelectionMatcher::new(&queries);
            let out = limits_tallied(&Cluster::new(3), &splits, &matcher, filter, 4).unwrap();
            assert_eq!(out.sides.len(), splits.len());
            let (mut table, rows) = SelectionTable::merge(out.sides);
            // the tallies see every row, filtered or not
            assert_eq!(table.len(), 3);
            assert_eq!(rows.iter().map(Vec::len).sum::<usize>(), 100);
            assert_eq!(out.results.len(), if filter.is_some() { 1 } else { 3 });
            for (sel, count) in out.results {
                let id = table.intern(sel);
                assert_eq!(table.count(id), count);
            }
        }
    }

    #[test]
    fn limits_sum_to_population_when_unfiltered() {
        let (splits, queries) = setup();
        let cluster = Cluster::new(2);
        let (limits, _) =
            try_stratum_selection_limits(&cluster, &splits, &queries, None, 2).unwrap();
        let total: u64 = limits.values().sum();
        assert_eq!(total, 100);
    }
}
