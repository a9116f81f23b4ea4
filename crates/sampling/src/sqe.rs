//! MR-SQE — the paper's single-query MapReduce sampler (Figure 2, §4.2.2).
//!
//! ```text
//! map    (null, t)            → [(s_k, t)]              if t satisfies s_k
//! combine(s_k, [t_1…t_N])     → (SRS([t_1…t_N], f_k), N)
//! reduce (s_k, [(S̄_1,N̄_1)…]) → unified-sampler({…}, f_k)
//! ```
//!
//! The combiner runs Algorithm R on each map task's local stream, so only
//! `min(f_k, N̄_i)` tuples per (task, stratum) cross the network; the
//! reducer merges the intermediate samples without bias via the unified
//! sampler (Algorithm 1).

use crate::obs::StratumCounters;
use crate::rows::{Pick, RowId, RowSampler, Strata};
use std::marker::PhantomData;
use stratmr_mapreduce::{Cluster, Emitter, InputSplit, JobError};
use stratmr_population::Individual;
use stratmr_query::{SelectionMatcher, SsdAnswer, SsdQuery, StratumId};
use stratmr_telemetry::Registry;

pub use crate::naive::SqeRun;

/// The Figure 2 job's strata: one key per stratum `k`, asking for
/// `freqs[k]` tuples. `stratum` finds a tuple's stratum from the tuple
/// or its row id; reduce returns each pick as a `P`. MR-CPS runs it on
/// the combined query Q′.
pub(crate) struct SqeJob<M, P> {
    stratum: M,
    freqs: Vec<usize>,
    /// Per-stratum `<prefix>.s<k>.{requested,candidates,sampled,rejected}`.
    counters: Option<StratumCounters>,
    pick: PhantomData<fn() -> P>,
}

impl<M, P> SqeJob<M, P> {
    pub fn new(stratum: M, freqs: Vec<usize>, registry: Option<&Registry>, prefix: &str) -> Self {
        let counters =
            registry.map(|r| StratumCounters::per_stratum(r, prefix, freqs.iter().copied()));
        Self {
            stratum,
            freqs,
            counters,
            pick: PhantomData,
        }
    }
}

impl<M, P> Strata for SqeJob<M, P>
where
    M: Fn(&Individual, RowId) -> Option<StratumId> + Send + Sync,
    P: Pick,
{
    type Key = StratumId;
    type Side = ();
    type Pick = P;

    fn map(&self, t: &Individual, row: RowId, out: &mut Emitter<StratumId, RowId>) {
        if let Some(k) = (self.stratum)(t, row) {
            if let Some(c) = &self.counters {
                c.candidate(k);
            }
            out.emit(k, row);
        }
    }

    fn frequency(&self, key: &StratumId) -> usize {
        self.freqs[*key]
    }

    fn reduced(&self, key: &StratumId, sampled: u64, seen: u64) {
        if let Some(c) = &self.counters {
            c.reduced(*key, sampled, seen);
        }
    }

    fn key_slots(&self) -> usize {
        self.freqs.len()
    }

    #[inline]
    fn key_slot(&self, key: &StratumId) -> usize {
        *key
    }
}

/// Run MR-SQE on pre-built input splits. Scheduling failures (retry
/// exhaustion, no healthy machines under a fault plan) come back as
/// [`JobError`].
pub fn try_mr_sqe_on_splits(
    cluster: &Cluster,
    splits: &[InputSplit<Individual>],
    query: &SsdQuery,
    seed: u64,
) -> Result<SqeRun, JobError> {
    let cluster = cluster.named_or("sqe");
    let _span = cluster.telemetry().map(|t| t.span("sqe.run"));
    let matcher = SelectionMatcher::new(std::slice::from_ref(query));
    let stratum = |t: &Individual, _| {
        let mut stratum = None;
        matcher.for_each_stratum(t, |_, k| stratum = k);
        stratum
    };
    let freqs = query.constraints().iter().map(|s| s.frequency).collect();
    let job = SqeJob::<_, Individual>::new(stratum, freqs, cluster.telemetry(), "sqe");
    let out = RowSampler::new(splits, job).run(&cluster, seed)?;
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
    use crate::naive::naive_sqe_on_splits;
    use crate::stats::{chi2_critical_999, chi2_uniform};
    use stratmr_population::{AttrDef, AttrId, Dataset, Placement, Schema};
    use stratmr_query::{Formula, StratumConstraint};

    fn two_strata_query(f1: usize, f2: usize) -> SsdQuery {
        let x = AttrId(0);
        SsdQuery::new(vec![
            StratumConstraint::new(Formula::lt(x, 50), f1),
            StratumConstraint::new(Formula::ge(x, 50), f2),
        ])
    }

    #[test]
    fn answer_satisfies_query() {
        let splits = to_input_splits(&dataset(2000).distribute(5, 10, Placement::RoundRobin));
        let cluster = Cluster::new(5);
        let q = two_strata_query(10, 20);
        let run = try_mr_sqe_on_splits(&cluster, &splits, &q, 11).unwrap();
        assert!(run.answer.satisfies(&q));
    }

    #[test]
    fn combiner_cuts_shuffle_relative_to_naive() {
        let splits = to_input_splits(&dataset(5000).distribute(5, 20, Placement::RoundRobin));
        let cluster = Cluster::new(5);
        let q = two_strata_query(5, 5);
        let naive = naive_sqe_on_splits(&cluster, &splits, &q, 11).unwrap();
        let sqe = try_mr_sqe_on_splits(&cluster, &splits, &q, 11).unwrap();
        assert_eq!(naive.answer.stratum(0).len(), sqe.answer.stratum(0).len());
        assert!(
            sqe.stats.shuffle_bytes * 10 < naive.stats.shuffle_bytes,
            "combiner should slash shuffle: {} vs {}",
            sqe.stats.shuffle_bytes,
            naive.stats.shuffle_bytes
        );
        // at most f tuples per (task, stratum) cross the network
        assert!(sqe.stats.combine_output_pairs <= 20 * 2);
    }

    #[test]
    fn deficient_stratum_collects_all() {
        // x = 0..29
        let splits = to_input_splits(&dataset(30).distribute(3, 6, Placement::RoundRobin));
        let x = AttrId(0);
        let q = SsdQuery::new(vec![StratumConstraint::new(Formula::lt(x, 4), 50)]);
        let cluster = Cluster::new(3);
        let run = try_mr_sqe_on_splits(&cluster, &splits, &q, 2).unwrap();
        assert_eq!(run.answer.stratum(0).len(), 4);
    }

    /// A frequency far beyond the population must not pre-allocate: the
    /// combiner's reservoir grows with the matches it sees.
    #[test]
    fn huge_frequency_returns_every_match() {
        let splits = to_input_splits(&dataset(100).distribute(3, 6, Placement::RoundRobin));
        let cluster = Cluster::new(3);
        let q = two_strata_query(100_000_000_000, usize::MAX);
        let run = try_mr_sqe_on_splits(&cluster, &splits, &q, 5).unwrap();
        assert_eq!(run.answer.stratum(0).len(), 50);
        assert_eq!(run.answer.stratum(1).len(), 50);
        assert!(run.answer.stratum(0).iter().all(|t| t.get(AttrId(0)) < 50));
    }

    #[test]
    fn deterministic_given_seed() {
        let splits = to_input_splits(&dataset(500).distribute(2, 4, Placement::RoundRobin));
        let cluster = Cluster::new(2);
        let q = two_strata_query(5, 5);
        assert_eq!(
            try_mr_sqe_on_splits(&cluster, &splits, &q, 7)
                .unwrap()
                .answer,
            try_mr_sqe_on_splits(&cluster, &splits, &q, 7)
                .unwrap()
                .answer
        );
    }

    /// The central §4.2 claim: MR-SQE is unbiased even when the data
    /// placement is skewed so machines hold very different stratum
    /// populations. Every individual of a stratum must be selected
    /// equally often.
    #[test]
    fn unbiased_under_skewed_placement() {
        let x = AttrId(0);
        let schema = Schema::new(vec![AttrDef::numeric("x", 0, 99)]);
        // 24 "men" (x = 0), placed so machine 1 holds 4 and machine 2
        // holds 20 — the unequal-blocks scenario of §4.2.
        let tuples: Vec<Individual> = (0..24u64)
            .map(|i| Individual::new(i, vec![0], 10))
            .collect();
        let splits =
            to_input_splits(&Dataset::new(schema, tuples).distribute(2, 2, Placement::Contiguous));
        let q = SsdQuery::new(vec![StratumConstraint::new(Formula::eq(x, 0), 2)]);
        let cluster = Cluster::new(2);
        let trials = 8_000usize;
        let mut counts = vec![0u64; 24];
        for s in 0..trials {
            let run = try_mr_sqe_on_splits(&cluster, &splits, &q, s as u64).unwrap();
            for t in run.answer.stratum(0) {
                counts[t.id as usize] += 1;
            }
        }
        let chi2 = chi2_uniform(&counts);
        let crit = chi2_critical_999(23);
        assert!(
            chi2 < crit,
            "MR-SQE biased: chi2 {chi2} >= {crit}\n{counts:?}"
        );
    }

    /// Per-stratum telemetry: `candidates = sampled + rejected`, the
    /// sampled counters equal the answer sizes, and the run's spans nest
    /// under `sqe.run`.
    #[test]
    fn telemetry_counts_candidates_and_samples() {
        use stratmr_telemetry::Registry;
        let registry = Registry::new();
        let splits = to_input_splits(&dataset(1000).distribute(3, 6, Placement::RoundRobin));
        let cluster = Cluster::new(3).with_telemetry(registry.clone());
        let q = two_strata_query(7, 9);
        let run = try_mr_sqe_on_splits(&cluster, &splits, &q, 13).unwrap();
        let snap = registry.snapshot();
        for k in 0..2 {
            let candidates = snap.counter(&format!("sqe.s{k}.candidates"));
            let sampled = snap.counter(&format!("sqe.s{k}.sampled"));
            let rejected = snap.counter(&format!("sqe.s{k}.rejected"));
            assert_eq!(candidates, 500, "x is uniform over 0..100");
            assert_eq!(sampled, run.answer.stratum(k).len() as u64);
            assert_eq!(candidates, sampled + rejected);
        }
        // map-phase matches across strata equal the job's emitted records
        assert_eq!(
            snap.counter("sqe.s0.candidates") + snap.counter("sqe.s1.candidates"),
            snap.counter("mr.map.output_records")
        );
        assert_eq!(snap.span_calls("sqe.run"), 1);
        assert_eq!(snap.span_calls("sqe.run/mr.job"), 1);
    }

    /// Example 5 of the paper, verbatim: 64 individuals (30 men, 34
    /// women) on two machines; 5 men and 6 women requested.
    #[test]
    fn paper_example_5() {
        use stratmr_population::dataset::Split;
        use stratmr_population::DistributedDataset;
        let x = AttrId(0); // 0 = man, 1 = woman
        let schema = Schema::new(vec![AttrDef::numeric("x", 0, 1)]);
        // machine 1: 20 men, 16 women; machine 2: 10 men, 18 women
        let mut id = 0u64;
        let mut splits = Vec::new();
        for (machine, &(men, women)) in [(20, 16), (10, 18)].iter().enumerate() {
            let mut tuples = Vec::new();
            for _ in 0..men {
                tuples.push(Individual::new(id, vec![0], 10));
                id += 1;
            }
            for _ in 0..women {
                tuples.push(Individual::new(id, vec![1], 10));
                id += 1;
            }
            splits.push(Split {
                id: machine,
                home_machine: machine,
                tuples,
            });
        }
        let data = DistributedDataset::from_splits(schema, 2, splits);
        assert_eq!(data.splits()[0].tuples.len(), 36);
        let q = SsdQuery::new(vec![
            StratumConstraint::new(Formula::eq(x, 0), 5),
            StratumConstraint::new(Formula::eq(x, 1), 6),
        ]);
        let cluster = Cluster::new(2);
        let run = try_mr_sqe_on_splits(&cluster, &to_input_splits(&data), &q, 3).unwrap();
        assert_eq!(run.answer.stratum(0).len(), 5);
        assert_eq!(run.answer.stratum(1).len(), 6);
        assert!(run.answer.satisfies(&q));
    }
}
