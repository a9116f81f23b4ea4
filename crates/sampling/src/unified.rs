//! The unified sampler — Algorithm 1 of the paper.
//!
//! The reduce side of MR-SQE receives one *intermediate sample*
//! `(S̄_i, N̄_i)` per map task — a uniform sample `S̄_i` plus the size
//! `N̄_i` of the set it was drawn from — and must produce a final sample
//! that is unbiased over the union of the original sets. Selecting
//! uniformly from the union of the intermediate samples would be wrong
//! (§4.2's two-machine example: tuples from a 4-male machine would be
//! twice as likely as tuples from an 8-male machine); Algorithm 1 instead
//! draws a *virtual* index set over the full population and takes from
//! each `S̄_i` as many tuples as indexes landed in its range.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use stratmr_mapreduce::FxBuild;

/// An intermediate sample `(S̄, N̄)`: a uniform sample and the size of the
/// set it was drawn from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntermediateSample<T> {
    /// The sample `S̄`.
    pub sample: Vec<T>,
    /// `N̄` — how many items `S̄` was drawn from.
    pub drawn_from: usize,
}

impl<T> IntermediateSample<T> {
    /// Build an intermediate sample.
    ///
    /// # Panics
    /// Panics if the sample is larger than the set it was drawn from.
    pub fn new(sample: Vec<T>, drawn_from: usize) -> Self {
        assert!(
            sample.len() <= drawn_from,
            "sample larger than its source set"
        );
        Self { sample, drawn_from }
    }
}

/// Algorithm 1: merge intermediate samples into one unbiased sample of
/// size `n` (or everything, when fewer than `n` tuples are available).
///
/// Correctness requires the usual contract (§4.2.2): each `S̄_i` is a
/// uniform sample of its source set with `|S̄_i| = min(n, N̄_i)`.
pub fn unified_sampler<T, R: Rng + ?Sized>(
    samples: Vec<IntermediateSample<T>>,
    n: usize,
    rng: &mut R,
) -> Vec<T> {
    let available: usize = samples.iter().map(|s| s.sample.len()).sum();
    // Line 1-2: not enough tuples → return the union.
    if available < n || n == 0 {
        return samples.into_iter().flat_map(|s| s.sample).collect();
    }

    // Line 3-4: N = Σ N_i; I = n uniform indexes from [0, N).
    let total: usize = samples.iter().map(|s| s.drawn_from).sum();
    let indexes = sample_distinct_indexes(n, total, rng);

    // Lines 5-14: take |I ∩ [L, U)| tuples from each S̄_i; the ranges are
    // consecutive, so one pass over the sorted indexes counts them all.
    let mut result = Vec::with_capacity(n);
    let mut lower = 0usize;
    let mut counted = 0usize;
    for mut s in samples {
        let upper = lower + s.drawn_from;
        let c = indexes[counted..].partition_point(|&ix| ix < upper);
        counted += c;
        debug_assert!(
            c <= s.sample.len(),
            "contract violation: need {c} tuples from a sample of {}",
            s.sample.len()
        );
        // uniform selection of c tuples without replacement
        partial_shuffle(&mut s.sample, c, rng);
        result.extend(s.sample.into_iter().take(c));
        lower = upper;
    }
    result
}

/// Draw `n` *distinct* uniform indexes from `[0, total)` (Floyd's
/// algorithm — O(n) expected, independent of `total`), in ascending
/// order.
fn sample_distinct_indexes<R: Rng + ?Sized>(n: usize, total: usize, rng: &mut R) -> Vec<usize> {
    assert!(n <= total, "cannot draw {n} distinct indexes from {total}");
    let mut chosen: HashSet<usize, FxBuild> =
        HashSet::with_capacity_and_hasher(n, FxBuild::default());
    for j in (total - n)..total {
        let t = rng.gen_range(0..=j);
        if !chosen.insert(t) {
            chosen.insert(j);
        }
    }
    let mut indexes: Vec<usize> = chosen.into_iter().collect();
    indexes.sort_unstable();
    indexes
}

/// Move a uniform random `c`-subset to the front of `items`
/// (partial Fisher-Yates).
fn partial_shuffle<T, R: Rng + ?Sized>(items: &mut [T], c: usize, rng: &mut R) {
    let len = items.len();
    debug_assert!(c <= len);
    for d in 0..c {
        let j = rng.gen_range(d..len);
        items.swap(d, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{chi2_critical_999, chi2_statistic, chi2_uniform, hypergeometric_pmf};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn returns_union_when_insufficient() {
        let mut r = rng(1);
        let samples = vec![
            IntermediateSample::new(vec![1, 2], 2),
            IntermediateSample::new(vec![3], 1),
        ];
        let mut out = unified_sampler(samples, 10, &mut r);
        out.sort_unstable();
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn zero_request_returns_union_of_nothing_requested() {
        // n = 0: paper's contract is vacuous; we return whatever is there
        // only when available < n, so n = 0 yields the empty selection.
        let mut r = rng(2);
        let samples = vec![IntermediateSample::new(Vec::<u32>::new(), 0)];
        assert!(unified_sampler(samples, 0, &mut r).is_empty());
    }

    #[test]
    fn exact_size_and_membership() {
        let mut r = rng(3);
        let samples = vec![
            IntermediateSample::new(vec![1, 2, 3], 10),
            IntermediateSample::new(vec![4, 5, 6], 20),
        ];
        let out = unified_sampler(samples, 3, &mut r);
        assert_eq!(out.len(), 3);
        let mut o = out.clone();
        o.sort_unstable();
        o.dedup();
        assert_eq!(o.len(), 3, "duplicates in output");
        assert!(o.iter().all(|v| (1..=6).contains(v)));
    }

    #[test]
    fn distinct_index_sampler_is_exact() {
        let mut r = rng(4);
        for (n, total) in [(1usize, 1usize), (5, 5), (3, 100), (99, 100)] {
            let ix = sample_distinct_indexes(n, total, &mut r);
            assert_eq!(ix.len(), n);
            assert!(ix.iter().all(|&i| i < total));
        }
    }

    /// §4.2's bias example, repaired: S1 drawn from 4 items, S2 from 8.
    /// The number of final picks landing in block 1 must follow
    /// Hypergeometric(N = 12, K = 4, n = 2) — NOT uniform over samples.
    #[test]
    fn block_allocation_is_hypergeometric() {
        let trials = 30_000usize;
        let mut counts = [0u64; 3]; // c1 ∈ {0, 1, 2}
        let mut r = rng(5);
        for _ in 0..trials {
            let samples = vec![
                IntermediateSample::new(vec![10, 11], 4), // block 1 ids
                IntermediateSample::new(vec![20, 21], 8), // block 2 ids
            ];
            let out = unified_sampler(samples, 2, &mut r);
            let c1 = out.iter().filter(|&&v| v < 20).count();
            counts[c1] += 1;
        }
        let expected: Vec<f64> = (0..3u64)
            .map(|y| trials as f64 * hypergeometric_pmf(12, 4, 2, y))
            .collect();
        let chi2 = chi2_statistic(&counts, &expected);
        let crit = chi2_critical_999(2);
        assert!(chi2 < crit, "chi2 {chi2} >= {crit}; counts {counts:?}");
    }

    /// End-to-end §4.2 scenario: reservoir-sample each block locally,
    /// then unify. Every individual of the full population must be
    /// selected with equal probability — the property the naive
    /// "sample-of-samples" approach violates.
    #[test]
    fn end_to_end_uniformity_over_unequal_blocks() {
        use crate::reservoir::reservoir_sample;
        let blocks: [Vec<u32>; 2] = [(0..4).collect(), (4..12).collect()];
        let n = 2usize;
        let trials = 30_000usize;
        let mut counts = vec![0u64; 12];
        let mut r = rng(6);
        for _ in 0..trials {
            let samples: Vec<IntermediateSample<u32>> = blocks
                .iter()
                .map(|b| {
                    let (s, seen) = reservoir_sample(b.iter().copied(), n, &mut r);
                    IntermediateSample::new(s, seen)
                })
                .collect();
            for v in unified_sampler(samples, n, &mut r) {
                counts[v as usize] += 1;
            }
        }
        let chi2 = chi2_uniform(&counts);
        let crit = chi2_critical_999(11);
        assert!(
            chi2 < crit,
            "not uniform: chi2 {chi2} >= {crit}, {counts:?}"
        );
    }

    /// The broken strategy the paper warns against — uniform choice over
    /// the union of intermediate samples — must FAIL the same uniformity
    /// test. This guards the test's power.
    #[test]
    fn naive_union_sampling_is_detectably_biased() {
        use crate::reservoir::reservoir_sample;
        use rand::seq::SliceRandom;
        let blocks: [Vec<u32>; 2] = [(0..4).collect(), (4..12).collect()];
        let n = 2usize;
        let trials = 30_000usize;
        let mut counts = vec![0u64; 12];
        let mut r = rng(7);
        for _ in 0..trials {
            let mut pool = Vec::new();
            for b in &blocks {
                let (s, _) = reservoir_sample(b.iter().copied(), n, &mut r);
                pool.extend(s);
            }
            pool.shuffle(&mut r);
            for v in pool.into_iter().take(n) {
                counts[v as usize] += 1;
            }
        }
        let chi2 = chi2_uniform(&counts);
        let crit = chi2_critical_999(11);
        assert!(
            chi2 > crit,
            "naive approach unexpectedly looked unbiased: {chi2} < {crit}"
        );
    }

    /// K intermediate samples of unequal sizes still produce exactly n.
    #[test]
    fn many_blocks_exact_output() {
        let mut r = rng(8);
        let samples: Vec<IntermediateSample<usize>> = (0..7)
            .map(|i| {
                let size = i + 1; // N_i
                let k = 3.min(size);
                IntermediateSample::new((0..k).map(|j| i * 100 + j).collect(), size)
            })
            .collect();
        let out = unified_sampler(samples, 3, &mut r);
        assert_eq!(out.len(), 3);
    }

    /// The pre-sorting Algorithm 1, which counted each range by a full
    /// pass over the index set.
    fn unified_sampler_by_scans<T, R: Rng + ?Sized>(
        samples: Vec<IntermediateSample<T>>,
        n: usize,
        rng: &mut R,
    ) -> Vec<T> {
        let available: usize = samples.iter().map(|s| s.sample.len()).sum();
        if available < n || n == 0 {
            return samples.into_iter().flat_map(|s| s.sample).collect();
        }
        let total: usize = samples.iter().map(|s| s.drawn_from).sum();
        let indexes = sample_distinct_indexes(n, total, rng);
        let mut result = Vec::with_capacity(n);
        let mut lower = 0usize;
        for mut s in samples {
            let upper = lower + s.drawn_from;
            let c = indexes
                .iter()
                .filter(|&&ix| ix >= lower && ix < upper)
                .count();
            partial_shuffle(&mut s.sample, c, rng);
            result.extend(s.sample.into_iter().take(c));
            lower = upper;
        }
        result
    }

    /// Counting per range over the sorted indexes draws and returns
    /// exactly what the per-range scans did, including empty sources and
    /// the union fallback.
    #[test]
    fn sorted_counting_is_byte_identical_to_range_scans() {
        use rand::Rng;
        let mut shapes = rng(9);
        for case in 0..400u64 {
            let blocks = shapes.gen_range(1..12usize);
            let n = shapes.gen_range(0..30usize);
            let mut next_id = 0u32;
            let samples: Vec<IntermediateSample<u32>> = (0..blocks)
                .map(|_| {
                    let drawn_from = shapes.gen_range(0..60usize);
                    let size = drawn_from.min(n);
                    let sample = (next_id..next_id + size as u32).collect();
                    next_id += drawn_from as u32;
                    IntermediateSample::new(sample, drawn_from)
                })
                .collect();
            let new = unified_sampler(samples.clone(), n, &mut rng(case));
            let old = unified_sampler_by_scans(samples, n, &mut rng(case));
            assert_eq!(new, old, "case {case}");
        }
    }

    #[test]
    #[should_panic(expected = "sample larger than its source set")]
    fn oversized_intermediate_sample_rejected() {
        IntermediateSample::new(vec![1, 2, 3], 2);
    }
}
