//! Reservoir sampling (§4.1).
//!
//! **Algorithm R** (attributed to Alan Waterman, analyzed by Vitter)
//! maintains a uniform simple random sample of everything observed so
//! far, in one sequential pass and O(k) memory. It is the paper's
//! sequential baseline and the engine inside the MR-SQE combiner.

use crate::unified::IntermediateSample;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Push onto a reservoir that holds fewer than `capacity` items, growing
/// storage geometrically but never past `capacity`: a full reservoir
/// uses exactly `capacity` slots, and a huge capacity costs nothing
/// until that many items arrive.
#[inline]
fn push_bounded<T>(items: &mut Vec<T>, capacity: usize, item: T) {
    if items.len() == items.capacity() {
        let grown = (2 * items.len()).max(4).min(capacity);
        items.reserve_exact(grown - items.len());
    }
    items.push(item);
}

/// Algorithm R: a fixed-capacity uniform reservoir.
///
/// Storage grows with the stream (see `push_bounded`), so a reservoir
/// holds `min(capacity, seen)` items.
#[derive(Debug, Clone)]
pub struct Reservoir<T> {
    capacity: usize,
    items: Vec<T>,
    seen: usize,
}

impl<T> Reservoir<T> {
    /// An empty reservoir holding at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            items: Vec::new(),
            seen: 0,
        }
    }

    /// Observe the next item of the stream.
    ///
    /// The first `capacity` items fill the reservoir; item `i + 1`
    /// (1-based) then replaces a uniformly chosen resident with
    /// probability `capacity / (i + 1)`, which keeps the reservoir a
    /// simple random sample of all items seen.
    pub fn observe<R: Rng + ?Sized>(&mut self, item: T, rng: &mut R) {
        self.seen += 1;
        if self.items.len() < self.capacity {
            push_bounded(&mut self.items, self.capacity, item);
        } else if self.capacity > 0 {
            // j uniform over [0, seen): replace iff j lands in the reservoir
            let j = rng.gen_range(0..self.seen);
            if j < self.capacity {
                self.items[j] = item;
            }
        }
    }

    /// Number of items observed so far (`N̄` of the intermediate sample).
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// The current sample.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Finish: the sample and the number of items it was drawn from.
    pub fn into_parts(self) -> (Vec<T>, usize) {
        (self.items, self.seen)
    }
}

/// The sampling jobs' combiner state: Algorithm R over one
/// `(map task, key)` stream, driven by an RNG seeded for that pair.
#[derive(Debug, Clone)]
pub(crate) struct SeededReservoir<T> {
    rng: ChaCha8Rng,
    reservoir: Reservoir<T>,
}

impl<T> SeededReservoir<T> {
    /// An empty reservoir of `capacity` items drawing from `seed`.
    pub(crate) fn new(capacity: usize, seed: u64) -> Self {
        Self {
            rng: ChaCha8Rng::seed_from_u64(seed),
            reservoir: Reservoir::new(capacity),
        }
    }

    /// Observe the next item of the stream.
    #[inline]
    pub(crate) fn observe(&mut self, item: T) {
        self.reservoir.observe(item, &mut self.rng);
    }

    /// The intermediate sample `(S̄, N̄)` of everything observed.
    pub(crate) fn finish(self) -> IntermediateSample<T> {
        let (sample, seen) = self.reservoir.into_parts();
        IntermediateSample::new(sample, seen)
    }
}

/// One-shot Algorithm R over an iterator: returns `(sample, seen)`.
pub fn reservoir_sample<T, R: Rng + ?Sized>(
    items: impl IntoIterator<Item = T>,
    k: usize,
    rng: &mut R,
) -> (Vec<T>, usize) {
    let mut r = Reservoir::new(k);
    for item in items {
        r.observe(item, rng);
    }
    r.into_parts()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::chi2_critical_999;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn fills_then_holds_capacity() {
        let mut r = rng(1);
        let (sample, seen) = reservoir_sample(0..100u32, 10, &mut r);
        assert_eq!(sample.len(), 10);
        assert_eq!(seen, 100);
        // sample members come from the stream, no duplicates
        let mut s = sample.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 10);
        assert!(s.iter().all(|&v| v < 100));
    }

    #[test]
    fn short_stream_returns_everything() {
        let mut r = rng(2);
        let (sample, seen) = reservoir_sample(0..5u32, 10, &mut r);
        assert_eq!(seen, 5);
        assert_eq!(sample, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn huge_capacity_allocates_only_what_arrives() {
        let mut r = rng(13);
        for capacity in [100_000_000_000usize, usize::MAX] {
            let (sample, seen) = reservoir_sample(0..50u32, capacity, &mut r);
            assert_eq!(sample, (0..50).collect::<Vec<_>>());
            assert!(sample.capacity() < 100);
            assert_eq!(seen, 50);
        }
    }

    #[test]
    fn zero_capacity_keeps_nothing() {
        let mut r = rng(3);
        let (sample, seen) = reservoir_sample(0..50u32, 0, &mut r);
        assert!(sample.is_empty());
        assert_eq!(seen, 50);
    }

    /// Every item must appear in the reservoir with equal probability
    /// k/N; chi-square over many trials.
    #[test]
    fn algorithm_r_is_uniform() {
        let n = 20usize;
        let k = 5usize;
        let trials = 20_000usize;
        let mut counts = vec![0u64; n];
        let mut r = rng(4);
        for _ in 0..trials {
            let (sample, _) = reservoir_sample(0..n, k, &mut r);
            for v in sample {
                counts[v] += 1;
            }
        }
        let expected = (trials * k) as f64 / n as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| (c as f64 - expected).powi(2) / expected)
            .sum();
        let crit = chi2_critical_999(n - 1);
        assert!(chi2 < crit, "chi2 {chi2} >= critical {crit}");
    }

    /// A full reservoir holds exactly `capacity` slots.
    #[test]
    fn full_reservoir_is_exactly_sized() {
        let mut r = rng(14);
        for capacity in [1usize, 3, 5, 37, 300] {
            let (sample, _) = reservoir_sample(0..1000u32, capacity, &mut r);
            assert_eq!((sample.len(), sample.capacity()), (capacity, capacity));
        }
    }

    /// The reservoir is a valid sample at *every* prefix of the stream,
    /// not just at the end.
    #[test]
    fn prefix_sample_sizes_are_correct() {
        let mut r = rng(5);
        let mut res = Reservoir::new(3);
        for i in 0..10u32 {
            res.observe(i, &mut r);
            assert_eq!(res.items().len(), 3.min(i as usize + 1));
            assert_eq!(res.seen(), i as usize + 1);
        }
    }
}
