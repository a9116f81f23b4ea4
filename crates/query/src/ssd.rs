//! Stratified-sampling design (SSD) queries and their answers (§3.2.1).
//!
//! An SSD query is a set of *stratum constraints* `s_k = (ϕ_k, f_k)`: a
//! propositional condition defining the stratum and the number of
//! individuals to sample from it. Validity requires the strata of any two
//! constraints to be disjoint over the dataset.

use crate::formula::Formula;
use serde::{Deserialize, Serialize};
use stratmr_population::Individual;

/// Index of a stratum constraint within an [`SsdQuery`].
pub type StratumId = usize;

/// A stratum constraint `s_k = (ϕ_k, f_k)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StratumConstraint {
    /// The propositional condition `ϕ_k` defining the stratum.
    pub formula: Formula,
    /// The required sample frequency `f_k` — the number of individuals to
    /// select from the stratum.
    pub frequency: usize,
}

impl StratumConstraint {
    /// Build a stratum constraint.
    pub fn new(formula: Formula, frequency: usize) -> Self {
        Self { formula, frequency }
    }

    /// Does tuple `t` satisfy this constraint's condition?
    #[inline]
    pub fn matches(&self, t: &Individual) -> bool {
        self.formula.eval(t)
    }
}

/// Why an SSD query is unsatisfiable over a dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SsdError {
    /// A stratum has fewer matching individuals than its required
    /// frequency, so the query is unsatisfiable over the dataset.
    Unsatisfiable {
        /// The deficient stratum.
        stratum: StratumId,
        /// Matching individuals available.
        available: usize,
        /// Individuals required.
        required: usize,
    },
}

impl std::fmt::Display for SsdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SsdError::Unsatisfiable {
                stratum,
                available,
                required,
            } => write!(
                f,
                "stratum {stratum} has only {available} individuals but requires {required}"
            ),
        }
    }
}

impl std::error::Error for SsdError {}

/// A stratified sample design query `Q = {s_1, ..., s_m}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SsdQuery {
    constraints: Vec<StratumConstraint>,
}

impl SsdQuery {
    /// Build an SSD query from its stratum constraints.
    pub fn new(constraints: Vec<StratumConstraint>) -> Self {
        Self { constraints }
    }

    /// The stratum constraints.
    pub fn constraints(&self) -> &[StratumConstraint] {
        &self.constraints
    }

    /// Number of strata `m`.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// True when the query has no strata.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// The constraint with the given id.
    pub fn stratum(&self, k: StratumId) -> &StratumConstraint {
        &self.constraints[k]
    }

    /// Total required sample size `Σ_k f_k`.
    pub fn total_frequency(&self) -> usize {
        self.constraints.iter().map(|s| s.frequency).sum()
    }

    /// The stratum that `t` satisfies, if any.
    ///
    /// For a *valid* query the strata are disjoint, so the first match is
    /// the only match; this is the hot path of every mapper.
    #[inline]
    pub fn matching_stratum(&self, t: &Individual) -> Option<StratumId> {
        self.constraints.iter().position(|s| s.matches(t))
    }

    /// Check that every stratum has at least `f_k` matching individuals.
    pub fn validate_satisfiable<'a>(
        &self,
        tuples: impl IntoIterator<Item = &'a Individual> + Clone,
    ) -> Result<(), SsdError> {
        for (k, s) in self.constraints.iter().enumerate() {
            let available = tuples.clone().into_iter().filter(|t| s.matches(t)).count();
            if available < s.frequency {
                return Err(SsdError::Unsatisfiable {
                    stratum: k,
                    available,
                    required: s.frequency,
                });
            }
        }
        Ok(())
    }
}

/// An answer to an SSD query: one sample set `A_k` per stratum.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SsdAnswer {
    strata: Vec<Vec<Individual>>,
}

impl SsdAnswer {
    /// An empty answer with one (empty) sample per stratum.
    pub fn empty(num_strata: usize) -> Self {
        Self {
            strata: vec![Vec::new(); num_strata],
        }
    }

    /// Build from per-stratum samples.
    pub fn from_strata(strata: Vec<Vec<Individual>>) -> Self {
        Self { strata }
    }

    /// The sample for stratum `k`.
    pub fn stratum(&self, k: StratumId) -> &[Individual] {
        &self.strata[k]
    }

    /// Mutable access to the sample for stratum `k`.
    pub fn stratum_mut(&mut self, k: StratumId) -> &mut Vec<Individual> {
        &mut self.strata[k]
    }

    /// Number of strata.
    pub fn num_strata(&self) -> usize {
        self.strata.len()
    }

    /// All selected individuals, across strata.
    pub fn iter(&self) -> impl Iterator<Item = &Individual> {
        self.strata.iter().flatten()
    }

    /// Total number of selected individuals `|A| = Σ_k |A_k|`.
    pub fn len(&self) -> usize {
        self.strata.iter().map(|s| s.len()).sum()
    }

    /// True when no individual was selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Does the answer *satisfy* `query` (§3.2.1): exactly `f_k` tuples per
    /// stratum, all matching `ϕ_k`, no surplus tuples?
    pub fn satisfies(&self, query: &SsdQuery) -> bool {
        self.satisfies_clamped(query, None)
    }

    /// Like [`SsdAnswer::satisfies`] but, when `stratum_sizes` is given,
    /// accepts `|A_k| = min(f_k, N_k)` for deficient strata: the paper's
    /// algorithms return all matching tuples when a stratum is smaller
    /// than its required frequency.
    pub fn satisfies_clamped(&self, query: &SsdQuery, stratum_sizes: Option<&[usize]>) -> bool {
        if self.strata.len() != query.len() {
            return false;
        }
        for (k, s) in query.constraints().iter().enumerate() {
            let expected = match stratum_sizes {
                Some(sizes) => s.frequency.min(sizes[k]),
                None => s.frequency,
            };
            if self.strata[k].len() != expected {
                return false;
            }
            if !self.strata[k].iter().all(|t| s.matches(t)) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stratmr_population::{AttrDef, AttrId, Schema};

    fn schema() -> Schema {
        Schema::new(vec![AttrDef::numeric("x", 0, 100)])
    }

    fn pop(values: &[i64]) -> Vec<Individual> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| Individual::new(i as u64, vec![v], 0))
            .collect()
    }

    fn x() -> AttrId {
        schema().attr_id("x").unwrap()
    }

    #[test]
    fn matching_stratum_finds_unique_match() {
        let q = SsdQuery::new(vec![
            StratumConstraint::new(Formula::lt(x(), 50), 2),
            StratumConstraint::new(Formula::ge(x(), 50), 3),
        ]);
        let lo = Individual::new(0, vec![10], 0);
        let hi = Individual::new(1, vec![90], 0);
        assert_eq!(q.matching_stratum(&lo), Some(0));
        assert_eq!(q.matching_stratum(&hi), Some(1));
        assert_eq!(q.total_frequency(), 5);
    }

    #[test]
    fn tuple_matching_no_stratum_is_ignored() {
        let q = SsdQuery::new(vec![StratumConstraint::new(Formula::lt(x(), 10), 1)]);
        let t = Individual::new(0, vec![50], 0);
        assert_eq!(q.matching_stratum(&t), None);
    }

    #[test]
    fn satisfiability_validation() {
        let q = SsdQuery::new(vec![StratumConstraint::new(Formula::lt(x(), 50), 3)]);
        let small = pop(&[10, 20]);
        let err = q.validate_satisfiable(small.iter()).unwrap_err();
        assert_eq!(
            err,
            SsdError::Unsatisfiable {
                stratum: 0,
                available: 2,
                required: 3
            }
        );
        let big = pop(&[10, 20, 30]);
        assert!(q.validate_satisfiable(big.iter()).is_ok());
    }

    #[test]
    fn answer_satisfaction_exact() {
        let q = SsdQuery::new(vec![
            StratumConstraint::new(Formula::lt(x(), 50), 2),
            StratumConstraint::new(Formula::ge(x(), 50), 1),
        ]);
        let good =
            SsdAnswer::from_strata(vec![pop(&[1, 2]), vec![Individual::new(9, vec![99], 0)]]);
        assert!(good.satisfies(&q));
        // wrong count
        let short = SsdAnswer::from_strata(vec![pop(&[1]), vec![Individual::new(9, vec![99], 0)]]);
        assert!(!short.satisfies(&q));
        // tuple in wrong stratum
        let wrong =
            SsdAnswer::from_strata(vec![pop(&[1, 99]), vec![Individual::new(9, vec![99], 0)]]);
        assert!(!wrong.satisfies(&q));
        // mismatched arity
        let arity = SsdAnswer::from_strata(vec![pop(&[1, 2])]);
        assert!(!arity.satisfies(&q));
    }

    #[test]
    fn answer_satisfaction_clamped() {
        let q = SsdQuery::new(vec![StratumConstraint::new(Formula::lt(x(), 50), 5)]);
        let ans = SsdAnswer::from_strata(vec![pop(&[1, 2])]);
        assert!(!ans.satisfies(&q));
        // only 2 individuals exist in the stratum, so 2 is acceptable
        assert!(ans.satisfies_clamped(&q, Some(&[2])));
        assert!(!ans.satisfies_clamped(&q, Some(&[3])));
    }

    #[test]
    fn answer_iteration_and_len() {
        let mut a = SsdAnswer::empty(2);
        assert!(a.is_empty());
        a.stratum_mut(0).push(Individual::new(0, vec![1], 0));
        a.stratum_mut(1).push(Individual::new(1, vec![2], 0));
        a.stratum_mut(1).push(Individual::new(2, vec![3], 0));
        assert_eq!(a.len(), 3);
        assert_eq!(a.iter().count(), 3);
        assert_eq!(a.num_strata(), 2);
        assert_eq!(a.stratum(1).len(), 2);
    }
}
