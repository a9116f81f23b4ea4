//! Subsets of surveys (`τ ⊆ 1..n` in the paper's notation, 0-based here).
//!
//! The shared-survey cost `c_τ` and the decision variables `X_τ(σ)` of the
//! integer program are indexed by such subsets; a compact bitmask keeps
//! them hashable and cheap to enumerate.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Maximum number of parallel surveys supported by the bitmask encoding.
pub const MAX_SURVEYS: usize = 32;

/// A set of survey (SSD query) indexes, encoded as a bitmask.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct SurveySet(u32);

impl SurveySet {
    /// The empty set.
    pub const EMPTY: SurveySet = SurveySet(0);

    /// Build from raw bits.
    pub fn from_bits(bits: u32) -> Self {
        SurveySet(bits)
    }

    /// Raw bitmask.
    pub fn bits(self) -> u32 {
        self.0
    }

    /// The singleton `{i}`.
    pub fn singleton(i: usize) -> Self {
        assert!(i < MAX_SURVEYS, "survey index out of range");
        SurveySet(1 << i)
    }

    /// Build from an iterator of indexes.
    ///
    /// An inherent constructor (not the `FromIterator` trait) so calls
    /// stay unambiguous and the type remains `Copy`-friendly.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter(indexes: impl IntoIterator<Item = usize>) -> Self {
        let mut s = SurveySet::EMPTY;
        for i in indexes {
            s = s.with(i);
        }
        s
    }

    /// This set plus index `i`.
    #[must_use]
    pub fn with(self, i: usize) -> Self {
        assert!(i < MAX_SURVEYS, "survey index out of range");
        SurveySet(self.0 | (1 << i))
    }

    /// Does the set contain index `i`?
    pub fn contains(self, i: usize) -> bool {
        i < MAX_SURVEYS && self.0 & (1 << i) != 0
    }

    /// Number of surveys in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Is this the empty set?
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterate over the member indexes in increasing order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(i)
            }
        })
    }

    /// Enumerate every subset of this set, including the empty set and the
    /// set itself (the `τ ⊆ I(σ)` enumeration of Figure 3).
    pub fn subsets(self) -> impl Iterator<Item = SurveySet> {
        // Standard submask enumeration: iterate s = (s - 1) & mask.
        let mask = self.0;
        let mut cur = Some(mask);
        std::iter::from_fn(move || {
            let s = cur?;
            cur = if s == 0 { None } else { Some((s - 1) & mask) };
            Some(SurveySet(s))
        })
    }

    /// Enumerate the non-empty subsets.
    pub fn nonempty_subsets(self) -> impl Iterator<Item = SurveySet> {
        self.subsets().filter(|s| !s.is_empty())
    }
}

impl fmt::Display for SurveySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, i) in self.iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_membership() {
        let s = SurveySet::from_iter([0, 2, 5]);
        assert!(s.contains(0) && s.contains(2) && s.contains(5));
        assert!(!s.contains(1) && !s.contains(31) && !s.contains(99));
        assert_eq!(s.len(), 3);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 2, 5]);
        assert!(!s.is_empty());
        assert!(SurveySet::EMPTY.is_empty());
    }

    #[test]
    fn subsets_enumeration_is_complete() {
        let s = SurveySet::from_iter([0, 1, 4]);
        let subs: Vec<SurveySet> = s.subsets().collect();
        assert_eq!(subs.len(), 8); // 2^3
        for sub in &subs {
            assert!(sub.iter().all(|i| s.contains(i)), "{sub:?} ⊄ {s:?}");
        }
        // no duplicates
        let mut sorted = subs.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 8);
        assert_eq!(s.nonempty_subsets().count(), 7);
    }

    #[test]
    fn empty_set_has_one_subset() {
        assert_eq!(SurveySet::EMPTY.subsets().count(), 1);
        assert_eq!(SurveySet::EMPTY.nonempty_subsets().count(), 0);
    }

    #[test]
    fn display_formats_indices() {
        assert_eq!(SurveySet::from_iter([2, 0]).to_string(), "{0,2}");
        assert_eq!(SurveySet::EMPTY.to_string(), "{}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_index_rejected() {
        SurveySet::singleton(32);
    }
}
