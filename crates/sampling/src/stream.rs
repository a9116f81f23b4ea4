//! Streaming stratified sampling.
//!
//! A reservoir "holds a simple random sample of the processed tuples at
//! any step of the scan" (§4.1) — so stratified sampling works over
//! *unbounded streams*, not just stored datasets: keep one reservoir per
//! stratum and snapshot whenever an answer is needed. Partial samplers
//! from several independent streams merge without bias through the
//! unified sampler, mirroring the distributed data-stream sampling line
//! of work the paper relates to (§2, Cormode et al.; Tirthapura &
//! Woodruff).

use crate::reservoir::Reservoir;
use crate::unified::{unified_sampler, IntermediateSample};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use stratmr_population::Individual;
use stratmr_query::{SsdAnswer, SsdQuery};

/// An incremental stratified sampler over one tuple stream.
#[derive(Debug, Clone)]
pub struct StreamingSampler {
    query: SsdQuery,
    reservoirs: Vec<Reservoir<Individual>>,
    rng: ChaCha8Rng,
    observed: u64,
}

impl StreamingSampler {
    /// Start sampling for `query` with a deterministic seed.
    pub fn new(query: SsdQuery, seed: u64) -> Self {
        let reservoirs = query
            .constraints()
            .iter()
            .map(|s| Reservoir::new(s.frequency))
            .collect();
        Self {
            query,
            reservoirs,
            rng: ChaCha8Rng::seed_from_u64(seed),
            observed: 0,
        }
    }

    /// The design being sampled.
    pub fn query(&self) -> &SsdQuery {
        &self.query
    }

    /// Feed the next tuple of the stream.
    pub fn observe(&mut self, t: &Individual) {
        self.observed += 1;
        if let Some(k) = self.query.matching_stratum(t) {
            self.reservoirs[k].observe(t.clone(), &mut self.rng);
        }
    }

    /// Tuples observed so far (matching or not).
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Tuples observed so far in stratum `k`.
    pub fn stratum_seen(&self, k: usize) -> usize {
        self.reservoirs[k].seen()
    }

    /// A valid stratified sample of everything observed so far.
    pub fn snapshot(&self) -> SsdAnswer {
        SsdAnswer::from_strata(self.reservoirs.iter().map(|r| r.items().to_vec()).collect())
    }

    /// Finish the stream, producing the final answer.
    pub fn finish(self) -> SsdAnswer {
        SsdAnswer::from_strata(
            self.reservoirs
                .into_iter()
                .map(|r| r.into_parts().0)
                .collect(),
        )
    }

    /// Export the per-stratum intermediate samples `(S̄, N̄)` for an
    /// unbiased merge with other streams' samplers.
    pub fn into_partials(self) -> Vec<IntermediateSample<Individual>> {
        self.reservoirs
            .into_iter()
            .map(|r| {
                let (sample, seen) = r.into_parts();
                IntermediateSample::new(sample, seen)
            })
            .collect()
    }
}

/// Merge the partial samplers of several *disjoint* streams into one
/// unbiased stratified sample (Algorithm 1 per stratum).
///
/// # Panics
/// Panics when the samplers were built for designs of different arity.
pub fn merge_streams(
    query: &SsdQuery,
    partials: Vec<Vec<IntermediateSample<Individual>>>,
    seed: u64,
) -> SsdAnswer {
    for p in &partials {
        assert_eq!(p.len(), query.len(), "sampler arity mismatch");
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut strata = Vec::with_capacity(query.len());
    // regroup: stratum k takes the k-th partial of every stream
    let mut per_stream: Vec<_> = partials.into_iter().map(Vec::into_iter).collect();
    for s in query.constraints() {
        let inputs: Vec<IntermediateSample<Individual>> = per_stream
            .iter_mut()
            .map(|it| it.next().expect("arity checked above"))
            .collect();
        strata.push(unified_sampler(inputs, s.frequency, &mut rng));
    }
    SsdAnswer::from_strata(strata)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{chi2_critical_999, chi2_statistic, chi2_uniform};
    use stratmr_population::AttrId;
    use stratmr_query::{Formula, StratumConstraint};

    fn x() -> AttrId {
        AttrId(0)
    }

    fn query(f1: usize, f2: usize) -> SsdQuery {
        SsdQuery::new(vec![
            StratumConstraint::new(Formula::lt(x(), 50), f1),
            StratumConstraint::new(Formula::ge(x(), 50), f2),
        ])
    }

    fn ind(id: u64, v: i64) -> Individual {
        Individual::new(id, vec![v], 0)
    }

    /// One sampler fed `n` tuples with `x = id % 100`, finished.
    fn single_pass(q: &SsdQuery, n: u64, seed: u64) -> SsdAnswer {
        let mut sampler = StreamingSampler::new(q.clone(), seed);
        for i in 0..n {
            sampler.observe(&ind(i, (i % 100) as i64));
        }
        sampler.finish()
    }

    #[test]
    fn single_pass_satisfies_query_deterministically_in_seed() {
        let q = query(4, 6);
        assert!(single_pass(&q, 1000, 9).satisfies(&q));
        assert_eq!(single_pass(&q, 300, 1), single_pass(&q, 300, 1));
        assert_ne!(single_pass(&q, 300, 1), single_pass(&q, 300, 2));
    }

    /// The §4.1 baseline, which MR-SQE is held to (`tests/bias.rs`):
    /// one stream picks each of 12 individuals with probability `f/N`.
    #[test]
    fn single_stream_is_uniform() {
        let q = SsdQuery::new(vec![StratumConstraint::new(Formula::lt(x(), 12), 3)]);
        let trials = 12_000u64;
        let mut counts = vec![0u64; 12];
        for s in 0..trials {
            for t in single_pass(&q, 12, s).stratum(0) {
                counts[t.id as usize] += 1;
            }
        }
        let expected = vec![trials as f64 * 3.0 / 12.0; 12];
        let chi2 = chi2_statistic(&counts, &expected);
        assert!(chi2 < chi2_critical_999(11), "single stream biased: {chi2}");
    }

    #[test]
    fn snapshots_are_valid_at_every_prefix() {
        let mut sampler = StreamingSampler::new(query(3, 2), 1);
        for i in 0..100u64 {
            sampler.observe(&ind(i, (i % 100) as i64));
            let snap = sampler.snapshot();
            let low_seen = sampler.stratum_seen(0);
            let high_seen = sampler.stratum_seen(1);
            assert_eq!(snap.stratum(0).len(), low_seen.min(3));
            assert_eq!(snap.stratum(1).len(), high_seen.min(2));
            let q = sampler.query().clone();
            assert!(snap.satisfies_clamped(&q, Some(&[low_seen, high_seen])));
        }
        assert_eq!(sampler.observed(), 100);
        let final_answer = sampler.finish();
        assert_eq!(final_answer.len(), 5);
    }

    #[test]
    fn merged_streams_are_unbiased() {
        // two disjoint streams of very different sizes: 20 and 80 tuples
        // in the same stratum; the merge must be uniform over all 100
        let q = SsdQuery::new(vec![StratumConstraint::new(Formula::lt(x(), 100), 2)]);
        let trials = 20_000;
        let mut counts = vec![0u64; 100];
        for s in 0..trials {
            let mut a = StreamingSampler::new(q.clone(), s * 2);
            for i in 0..20u64 {
                a.observe(&ind(i, 0));
            }
            let mut b = StreamingSampler::new(q.clone(), s * 2 + 1);
            for i in 20..100u64 {
                b.observe(&ind(i, 0));
            }
            let merged = merge_streams(&q, vec![a.into_partials(), b.into_partials()], s);
            assert_eq!(merged.stratum(0).len(), 2);
            for t in merged.stratum(0) {
                counts[t.id as usize] += 1;
            }
        }
        let chi2 = chi2_uniform(&counts);
        let crit = chi2_critical_999(99);
        assert!(chi2 < crit, "merged stream sample biased: {chi2} >= {crit}");
    }

    #[test]
    fn merge_of_deficient_streams_returns_everything() {
        let q = SsdQuery::new(vec![StratumConstraint::new(Formula::lt(x(), 100), 10)]);
        let mut a = StreamingSampler::new(q.clone(), 0);
        a.observe(&ind(1, 5));
        let mut b = StreamingSampler::new(q.clone(), 1);
        b.observe(&ind(2, 6));
        let merged = merge_streams(&q, vec![a.into_partials(), b.into_partials()], 2);
        assert_eq!(merged.stratum(0).len(), 2);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn mismatched_partials_rejected() {
        let q = query(1, 1);
        merge_streams(&q, vec![vec![]], 0);
    }
}
