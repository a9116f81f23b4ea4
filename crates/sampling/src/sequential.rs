//! Sequential (single-machine) SSD evaluation — the §4.1 baseline.
//!
//! "A reservoir algorithm is an algorithm that in a single sequential
//! pass over R chooses the tuples of the sample." Running one Algorithm R
//! reservoir per stratum answers an SSD query in one scan with O(Σ f_k)
//! memory — the method the paper starts from before observing that it is
//! "unscalable and unsuitable for distributed datasets". It remains the
//! correctness oracle for the distributed algorithms: MR-SQE must be
//! statistically indistinguishable from this.

use crate::stream::StreamingSampler;
use stratmr_population::Individual;
use stratmr_query::{SsdAnswer, SsdQuery};

/// Answer an SSD query with one sequential pass (one reservoir per
/// stratum), deterministically in `seed`.
pub fn sequential_ssd<'a>(
    tuples: impl IntoIterator<Item = &'a Individual>,
    query: &SsdQuery,
    seed: u64,
) -> SsdAnswer {
    let mut sampler = StreamingSampler::new(query.clone(), seed);
    for t in tuples {
        sampler.observe(t);
    }
    sampler.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::to_input_splits;
    use crate::sqe::try_mr_sqe_on_splits;
    use crate::stats::{chi2_critical_999, chi2_statistic};
    use stratmr_mapreduce::Cluster;
    use stratmr_population::{AttrDef, AttrId, Dataset, Placement, Schema};
    use stratmr_query::{Formula, StratumConstraint};

    fn x() -> AttrId {
        AttrId(0)
    }

    fn dataset(n: usize) -> Dataset {
        let schema = Schema::new(vec![AttrDef::numeric("x", 0, 99)]);
        let tuples = (0..n as u64)
            .map(|i| Individual::new(i, vec![(i % 100) as i64], 10))
            .collect();
        Dataset::new(schema, tuples)
    }

    fn query() -> SsdQuery {
        SsdQuery::new(vec![
            StratumConstraint::new(Formula::lt(x(), 30), 4),
            StratumConstraint::new(Formula::ge(x(), 30), 6),
        ])
    }

    #[test]
    fn single_pass_satisfies_query() {
        let data = dataset(1000);
        let q = query();
        let answer = sequential_ssd(data.tuples(), &q, 9);
        assert!(answer.satisfies(&q));
    }

    #[test]
    fn deterministic_in_seed() {
        let data = dataset(300);
        let q = query();
        assert_eq!(
            sequential_ssd(data.tuples(), &q, 1),
            sequential_ssd(data.tuples(), &q, 1)
        );
        assert_ne!(
            sequential_ssd(data.tuples(), &q, 1),
            sequential_ssd(data.tuples(), &q, 2)
        );
    }

    /// MR-SQE and the sequential oracle must agree *in distribution*:
    /// compare per-individual selection counts of the two samplers with
    /// a two-sample chi-square over a small stratum.
    #[test]
    fn distributed_sampler_matches_sequential_distribution() {
        let schema = Schema::new(vec![AttrDef::numeric("x", 0, 0)]);
        let tuples: Vec<Individual> = (0..12u64)
            .map(|i| Individual::new(i, vec![0], 10))
            .collect();
        let data = Dataset::new(schema, tuples);
        let dist = data.distribute(3, 3, Placement::Contiguous);
        let splits = to_input_splits(&dist);
        let cluster = Cluster::new(3);
        let q = SsdQuery::new(vec![StratumConstraint::new(Formula::eq(x(), 0), 3)]);
        let trials = 12_000u64;
        let mut seq_counts = vec![0u64; 12];
        let mut mr_counts = vec![0u64; 12];
        for s in 0..trials {
            for t in sequential_ssd(data.tuples(), &q, s).stratum(0) {
                seq_counts[t.id as usize] += 1;
            }
            for t in try_mr_sqe_on_splits(&cluster, &splits, &q, s)
                .unwrap()
                .answer
                .stratum(0)
            {
                mr_counts[t.id as usize] += 1;
            }
        }
        // both must match the *known* uniform expectation
        let expected: Vec<f64> = vec![trials as f64 * 3.0 / 12.0; 12];
        let crit = chi2_critical_999(11);
        let seq_chi2 = chi2_statistic(&seq_counts, &expected);
        let mr_chi2 = chi2_statistic(&mr_counts, &expected);
        assert!(seq_chi2 < crit, "sequential biased: {seq_chi2}");
        assert!(mr_chi2 < crit, "MR-SQE deviates from oracle: {mr_chi2}");
    }
}
