//! Distributed simple random sampling (SRS) over MapReduce.
//!
//! The trivial stratified design with one all-covering stratum: useful
//! as a baseline against stratified designs (the Example 1 comparison)
//! and as a Rust counterpart to the distributed-streams SRS literature
//! the paper relates to (§2, Cormode et al. / Tirthapura & Woodruff).
//! Internally this *is* MR-SQE with a tautology stratum — one combiner
//! reservoir per split, one unified-sampler merge.

use crate::sqe::{try_mr_sqe_on_splits, SqeRun};
use stratmr_mapreduce::{Cluster, InputSplit, JobError};
use stratmr_population::Individual;
use stratmr_query::{Formula, SsdQuery, StratumConstraint};

/// Draw a uniform simple random sample of `n` individuals from the
/// input splits, in one MapReduce pass.
pub fn mr_srs_on_splits(
    cluster: &Cluster,
    splits: &[InputSplit<Individual>],
    n: usize,
    seed: u64,
) -> Result<(Vec<Individual>, SqeRun), JobError> {
    let query = SsdQuery::new(vec![StratumConstraint::new(Formula::tautology(), n)]);
    let run = try_mr_sqe_on_splits(&cluster.named_or("srs"), splits, &query, seed)?;
    Ok((run.answer.stratum(0).to_vec(), run))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::to_input_splits;
    use crate::stats::{chi2_critical_999, chi2_uniform};
    use stratmr_population::{AttrDef, Dataset, Placement, Schema};

    fn dataset(n: usize) -> Dataset {
        let schema = Schema::new(vec![AttrDef::numeric("x", 0, 9)]);
        let tuples = (0..n as u64)
            .map(|i| Individual::new(i, vec![(i % 10) as i64], 10))
            .collect();
        Dataset::new(schema, tuples)
    }

    #[test]
    fn exact_size_no_duplicates() {
        let splits = to_input_splits(&dataset(500).distribute(4, 8, Placement::RoundRobin));
        let (sample, _) = mr_srs_on_splits(&Cluster::new(4), &splits, 50, 3).unwrap();
        assert_eq!(sample.len(), 50);
        let mut ids: Vec<u64> = sample.iter().map(|t| t.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 50);
    }

    #[test]
    fn oversampling_returns_whole_population() {
        let splits = to_input_splits(&dataset(30).distribute(2, 4, Placement::RoundRobin));
        let (sample, _) = mr_srs_on_splits(&Cluster::new(2), &splits, 100, 1).unwrap();
        assert_eq!(sample.len(), 30);
    }

    #[test]
    fn srs_is_uniform_across_machines() {
        // even with contiguous (non-random) placement
        let splits = to_input_splits(&dataset(40).distribute(4, 4, Placement::Contiguous));
        let cluster = Cluster::new(4);
        let trials = 8000;
        let mut counts = vec![0u64; 40];
        for s in 0..trials {
            let (sample, _) = mr_srs_on_splits(&cluster, &splits, 4, s).unwrap();
            for t in sample {
                counts[t.id as usize] += 1;
            }
        }
        let chi2 = chi2_uniform(&counts);
        let crit = chi2_critical_999(39);
        assert!(chi2 < crit, "SRS biased: {chi2} >= {crit}");
    }
}
