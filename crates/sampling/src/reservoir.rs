//! Reservoir sampling (§4.1).
//!
//! **Algorithm R** (attributed to Alan Waterman, analyzed by Vitter)
//! maintains a uniform simple random sample of everything observed so
//! far, in one sequential pass and O(k) memory. It is the paper's
//! sequential baseline and the engine inside the MR-SQE combiner.
//!
//! **Algorithm X** and **Algorithm Z** (Vitter's skip-based refinements)
//! are also provided as extensions: they draw the number of records to
//! *skip* instead of flipping a coin per record — X by walking the skip
//! CDF, Z by O(1)-expected rejection sampling — touching the RNG
//! O(k log(N/k)) times instead of O(N).

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
/// Storage grows with the stream (see [`push_bounded`]), so a reservoir
/// holds `min(capacity, seen)` items; the same holds for the skip
/// reservoirs.
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

    /// Current sample size (`min(capacity, seen)`).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
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
pub struct SeededReservoir<T> {
    rng: ChaCha8Rng,
    reservoir: Reservoir<T>,
}

impl<T> SeededReservoir<T> {
    /// An empty reservoir of `capacity` items drawing from `seed`.
    pub fn new(capacity: usize, seed: u64) -> Self {
        Self {
            rng: ChaCha8Rng::seed_from_u64(seed),
            reservoir: Reservoir::new(capacity),
        }
    }

    /// Observe the next item of the stream.
    #[inline]
    pub fn observe(&mut self, item: T) {
        self.reservoir.observe(item, &mut self.rng);
    }

    /// The intermediate sample `(S̄, N̄)` of everything observed.
    pub fn finish(self) -> IntermediateSample<T> {
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

/// Algorithm X: skip-based reservoir sampling (extension; §4.1 cites
/// Vitter's TOMS paper, which introduces the skip family).
///
/// Behaviourally identical to Algorithm R — a uniform sample — but after
/// the reservoir fills it draws a *skip count* per replacement instead of
/// one random number per record.
#[derive(Debug, Clone)]
pub struct SkipReservoir<T> {
    capacity: usize,
    items: Vec<T>,
    seen: usize,
    /// Records still to skip before the next replacement.
    skip: usize,
    skip_armed: bool,
}

impl<T> SkipReservoir<T> {
    /// An empty skip-based reservoir of the given capacity.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            items: Vec::new(),
            seen: 0,
            skip: 0,
            skip_armed: false,
        }
    }

    /// Observe the next item of the stream.
    pub fn observe<R: Rng + ?Sized>(&mut self, item: T, rng: &mut R) {
        self.seen += 1;
        if self.items.len() < self.capacity {
            push_bounded(&mut self.items, self.capacity, item);
            return;
        }
        if self.capacity == 0 {
            return;
        }
        if !self.skip_armed {
            self.draw_skip(rng);
        }
        if self.skip == 0 {
            let j = rng.gen_range(0..self.capacity);
            self.items[j] = item;
            self.skip_armed = false;
        } else {
            self.skip -= 1;
        }
    }

    /// Draw the number of records to skip, by inverse transform on the
    /// skip distribution: `P(skip ≥ s) = Π_{j=1..s} (t - k + j)/(t + j)`
    /// where `t` = records seen, `k` = capacity.
    fn draw_skip<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let k = self.capacity as f64;
        let t = (self.seen - 1) as f64; // records seen before the current one
        let u: f64 = rng.gen_range(0.0..1.0);
        let mut s = 0usize;
        let mut prob_ge = 1.0; // P(skip >= s+1) running product
        loop {
            let tt = t + s as f64 + 1.0;
            prob_ge *= (tt - k) / tt;
            if u >= prob_ge || prob_ge <= 0.0 {
                break;
            }
            s += 1;
            // safety valve against pathological float behaviour
            if s > 1_000_000_000 {
                break;
            }
        }
        self.skip = s;
        self.skip_armed = true;
    }

    /// Number of items observed so far.
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

/// Algorithm Z: Vitter's rejection-based skip sampler — the main
/// algorithm of the TOMS paper the text cites for reservoir sampling.
///
/// Like [`SkipReservoir`] (Algorithm X) it draws how many records to
/// *skip* between replacements, but it samples the skip in O(1) expected
/// time by rejection from a continuous envelope instead of walking the
/// skip CDF term by term; Vitter's analysis gives O(k(1 + log(N/k)))
/// expected RNG work overall. For short streams (`seen ≤ T·k`, with
/// Vitter's suggested `T = 22`) it delegates to Algorithm X's exact walk,
/// as the paper recommends.
#[derive(Debug, Clone)]
pub struct ZReservoir<T> {
    capacity: usize,
    items: Vec<T>,
    seen: usize,
    skip: usize,
    skip_armed: bool,
    /// Algorithm Z's running state `W`.
    w: f64,
    /// Use Algorithm X while `seen ≤ threshold · capacity`.
    threshold: usize,
}

impl<T> ZReservoir<T> {
    /// An empty Algorithm Z reservoir of the given capacity.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            items: Vec::new(),
            seen: 0,
            skip: 0,
            skip_armed: false,
            w: 1.0,
            threshold: 22,
        }
    }

    /// Observe the next item of the stream.
    pub fn observe<R: Rng + ?Sized>(&mut self, item: T, rng: &mut R) {
        self.seen += 1;
        if self.items.len() < self.capacity {
            push_bounded(&mut self.items, self.capacity, item);
            if self.items.len() == self.capacity {
                self.w = init_w(self.capacity, rng);
            }
            return;
        }
        if self.capacity == 0 {
            return;
        }
        if !self.skip_armed {
            self.skip = self.draw_skip(rng);
            self.skip_armed = true;
        }
        if self.skip == 0 {
            let j = rng.gen_range(0..self.capacity);
            self.items[j] = item;
            self.skip_armed = false;
        } else {
            self.skip -= 1;
        }
    }

    /// Vitter's Algorithm Z skip generation (direct port of the paper's
    /// pseudo-code; `n` = reservoir size, `t` = records seen so far).
    fn draw_skip<R: Rng + ?Sized>(&mut self, rng: &mut R) -> usize {
        let n = self.capacity;
        let t = self.seen - 1; // records seen before the current one
        if t <= self.threshold * n {
            return x_skip(n, t, rng);
        }
        let nf = n as f64;
        let tf = t as f64;
        let term = tf - nf + 1.0;
        loop {
            // generate U and X from the envelope
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let x = tf * (self.w - 1.0);
            let s = x.floor();

            // squeeze acceptance test (cheap)
            let quot = ((u * ((tf + 1.0) / term).powi(2)) * (term + s)) / (tf + x);
            let lhs = (quot.ln() / nf).exp();
            let rhs = (((tf + x) / (term + s)) * term) / tf;
            if lhs <= rhs {
                self.w = rhs / lhs;
                return s as usize;
            }

            // full acceptance test
            let mut y = (((u * (tf + 1.0)) / term) * (tf + s + 1.0)) / (tf + x);
            let (mut denom, numer_lim) = if nf < s {
                (tf, term + s)
            } else {
                (tf - nf + s, tf + 1.0)
            };
            let mut numer = tf + s;
            while numer >= numer_lim {
                y = (y * numer) / denom;
                denom -= 1.0;
                numer -= 1.0;
            }
            self.w = init_w(n, rng);
            if (y.ln() / nf).exp() <= (tf + x) / tf {
                return s as usize;
            }
            // rejected: loop and try again
        }
    }

    /// Number of items observed so far.
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

/// `W = exp(-ln(U)/n)` — Algorithm Z's envelope state.
fn init_w<R: Rng + ?Sized>(n: usize, rng: &mut R) -> f64 {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    (-u.ln() / n as f64).exp()
}

/// Exact Algorithm X skip draw for a reservoir of size `k` after `t`
/// records have been seen.
fn x_skip<R: Rng + ?Sized>(k: usize, t: usize, rng: &mut R) -> usize {
    let kf = k as f64;
    let tf = t as f64;
    let u: f64 = rng.gen_range(0.0..1.0);
    let mut s = 0usize;
    let mut prob_ge = 1.0;
    loop {
        let tt = tf + s as f64 + 1.0;
        prob_ge *= (tt - kf) / tt;
        if u >= prob_ge || prob_ge <= 0.0 {
            return s;
        }
        s += 1;
        if s > 1_000_000_000 {
            return s;
        }
    }
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
            let mut x = SkipReservoir::new(capacity);
            let mut z = ZReservoir::new(capacity);
            for i in 0..50u32 {
                x.observe(i, &mut r);
                z.observe(i, &mut r);
            }
            assert_eq!(x.items().len(), 50);
            assert_eq!(z.items().len(), 50);
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
            assert_eq!(res.len(), 3.min(i as usize + 1));
            assert_eq!(res.seen(), i as usize + 1);
        }
    }

    #[test]
    fn skip_reservoir_matches_contract() {
        let mut r = rng(6);
        let mut res = SkipReservoir::new(7);
        for i in 0..1000u32 {
            res.observe(i, &mut r);
        }
        let (sample, seen) = res.into_parts();
        assert_eq!(seen, 1000);
        assert_eq!(sample.len(), 7);
        let mut s = sample.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 7, "duplicates in skip reservoir");
    }

    /// Algorithm X must be uniform too.
    #[test]
    fn skip_reservoir_is_uniform() {
        let n = 16usize;
        let k = 4usize;
        let trials = 20_000usize;
        let mut counts = vec![0u64; n];
        let mut r = rng(7);
        for _ in 0..trials {
            let mut res = SkipReservoir::new(k);
            for i in 0..n {
                res.observe(i, &mut r);
            }
            for v in res.items() {
                counts[*v] += 1;
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

    /// Algorithm Z must be uniform, including past the Algorithm X
    /// handoff threshold (22·k records).
    #[test]
    fn z_reservoir_is_uniform() {
        let n = 200usize; // > 22 · k, so the rejection path runs
        let k = 4usize;
        let trials = 15_000usize;
        let mut counts = vec![0u64; n];
        let mut r = rng(10);
        for _ in 0..trials {
            let mut res = ZReservoir::new(k);
            for i in 0..n {
                res.observe(i, &mut r);
            }
            for v in res.items() {
                counts[*v] += 1;
            }
        }
        let chi2 = crate::stats::chi2_uniform(&counts);
        let crit = chi2_critical_999(n - 1);
        assert!(chi2 < crit, "Algorithm Z biased: chi2 {chi2} >= {crit}");
    }

    #[test]
    fn z_reservoir_contract() {
        let mut r = rng(11);
        let mut res = ZReservoir::new(7);
        for i in 0..5_000u32 {
            res.observe(i, &mut r);
        }
        assert_eq!(res.seen(), 5_000);
        let (sample, seen) = res.into_parts();
        assert_eq!(seen, 5_000);
        assert_eq!(sample.len(), 7);
        let mut s = sample.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 7, "duplicates in Algorithm Z sample");
    }

    #[test]
    fn z_reservoir_short_stream_and_zero_capacity() {
        let mut r = rng(12);
        let mut res = ZReservoir::new(10);
        for i in 0..4u32 {
            res.observe(i, &mut r);
        }
        assert_eq!(res.items(), &[0, 1, 2, 3]);
        let mut zero = ZReservoir::new(0);
        for i in 0..100u32 {
            zero.observe(i, &mut r);
        }
        assert!(zero.items().is_empty());
    }

    #[test]
    fn skip_reservoir_short_stream() {
        let mut r = rng(8);
        let mut res = SkipReservoir::new(10);
        for i in 0..4u32 {
            res.observe(i, &mut r);
        }
        assert_eq!(res.items(), &[0, 1, 2, 3]);
        assert_eq!(res.seen(), 4);
    }
}
