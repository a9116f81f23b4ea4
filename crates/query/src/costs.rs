//! The survey cost model of §3.2.2 and §6.1.2.
//!
//! Each SSD query `Q_i` has an *interview cost* `c_i` — the cost of
//! collecting information from one individual for that survey alone. When
//! an individual is shared by the surveys in `τ`, the *shared survey cost*
//! `c_τ` applies. Unless configured otherwise, the default is
//! *indifference to sharing*: `dc_τ = Σ_{i∈τ} c_i`.
//!
//! The paper's experiments (§6.1.2) use a different base: the cost of any
//! set of shared interviews is the cost of a single interview (modelling
//! Example 4, `c_{1,2} = max(c_1, c_2)`), plus a *penalty* `p_{i,j}` added
//! to every `c_τ` with `{i, j} ⊆ τ` to make some sharing undesirable.

use crate::survey_set::SurveySet;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// How the shared cost of a multi-survey set is derived when no explicit
/// override exists.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SharingBase {
    /// Indifference to sharing: `c_τ = Σ_{i∈τ} c_i` (the paper's default
    /// `dc_τ`). Sharing never pays off.
    Sum,
    /// One combined interview covers all surveys: `c_τ = max_{i∈τ} c_i`
    /// (Example 4 and the §6.1.2 experiments).
    Max,
    /// A flat cost per surveyed individual regardless of `|τ|`.
    Constant(f64),
}

/// The cost side `C` of an MSSD query `(Q, C)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    interview: Vec<f64>,
    base: SharingBase,
    /// Pairwise penalties `p_{i,j}`, applied to every `c_τ` with
    /// `{i,j} ⊆ τ`.
    penalties: Vec<(usize, usize, f64)>,
    /// Explicit `c_τ` values; take precedence over base + penalties.
    overrides: HashMap<SurveySet, f64>,
}

impl CostModel {
    /// Indifference-to-sharing model with the given interview costs.
    pub fn indifferent(interview: Vec<f64>) -> Self {
        Self {
            interview,
            base: SharingBase::Sum,
            penalties: Vec::new(),
            overrides: HashMap::new(),
        }
    }

    /// The §6.1.2 experimental model: every interview costs `interview`
    /// dollars ($4 in the paper), sharing a set of surveys costs one
    /// interview, and each listed pair carries a `penalty` ($10).
    pub fn paper_style(
        n_surveys: usize,
        interview: f64,
        penalized_pairs: &[(usize, usize)],
        penalty: f64,
    ) -> Self {
        Self {
            interview: vec![interview; n_surveys],
            base: SharingBase::Max,
            penalties: penalized_pairs
                .iter()
                .map(|&(i, j)| (i.min(j), i.max(j), penalty))
                .collect(),
            overrides: HashMap::new(),
        }
    }

    /// Generic constructor.
    pub fn new(interview: Vec<f64>, base: SharingBase) -> Self {
        Self {
            interview,
            base,
            penalties: Vec::new(),
            overrides: HashMap::new(),
        }
    }

    /// Add a pairwise penalty `p_{i,j}`.
    pub fn with_penalty(mut self, i: usize, j: usize, penalty: f64) -> Self {
        assert!(i != j, "penalty needs two distinct surveys");
        self.penalties.push((i.min(j), i.max(j), penalty));
        self
    }

    /// Set an explicit shared cost `c_τ` (takes precedence over base and
    /// penalties).
    pub fn with_override(mut self, tau: SurveySet, cost: f64) -> Self {
        self.overrides.insert(tau, cost);
        self
    }

    /// Number of surveys the model covers.
    pub(crate) fn n_surveys(&self) -> usize {
        self.interview.len()
    }

    /// Interview cost `c_i` of survey `i`.
    pub fn interview_cost(&self, i: usize) -> f64 {
        self.interview[i]
    }

    /// The pairwise penalties.
    pub fn penalties(&self) -> &[(usize, usize, f64)] {
        &self.penalties
    }

    /// The shared survey cost `c_τ` of surveying one individual for all
    /// surveys in `τ`. The empty set costs nothing.
    pub fn cost(&self, tau: SurveySet) -> f64 {
        if tau.is_empty() {
            return 0.0;
        }
        if let Some(&c) = self.overrides.get(&tau) {
            return c;
        }
        let base = match self.base {
            SharingBase::Sum => tau.iter().map(|i| self.interview[i]).sum(),
            SharingBase::Max => tau
                .iter()
                .map(|i| self.interview[i])
                .fold(f64::NEG_INFINITY, f64::max),
            SharingBase::Constant(c) => c,
        };
        let penalty: f64 = self
            .penalties
            .iter()
            .filter(|&&(i, j, _)| tau.contains(i) && tau.contains(j))
            .map(|&(_, _, p)| p)
            .sum();
        base + penalty
    }

    /// The cost of an assignment: `Σ_t c_{τ(t)}` over every individual's
    /// survey set.
    pub(crate) fn assignment_cost<'a>(&self, taus: impl IntoIterator<Item = &'a SurveySet>) -> f64 {
        taus.into_iter().map(|&t| self.cost(t)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indifferent_model_sums_interviews() {
        let c = CostModel::indifferent(vec![20.0, 4.0]);
        assert_eq!(c.cost(SurveySet::singleton(0)), 20.0);
        assert_eq!(c.cost(SurveySet::singleton(1)), 4.0);
        assert_eq!(c.cost(SurveySet::from_iter([0, 1])), 24.0);
        assert_eq!(c.cost(SurveySet::EMPTY), 0.0);
    }

    #[test]
    fn example4_max_sharing() {
        // Face-to-face $20, telephone $4, shared = max = $20.
        let c = CostModel::new(vec![20.0, 4.0], SharingBase::Max);
        assert_eq!(c.cost(SurveySet::from_iter([0, 1])), 20.0);
        assert_eq!(c.cost(SurveySet::singleton(1)), 4.0);
    }

    #[test]
    fn paper_style_costs() {
        // 3 surveys, $4 interviews, penalty $10 on (0,2).
        let c = CostModel::paper_style(3, 4.0, &[(2, 0)], 10.0);
        assert_eq!(c.n_surveys(), 3);
        assert_eq!(c.cost(SurveySet::singleton(0)), 4.0);
        assert_eq!(c.cost(SurveySet::from_iter([0, 1])), 4.0);
        // penalized pair costs more than two separate interviews
        assert_eq!(c.cost(SurveySet::from_iter([0, 2])), 14.0);
        // penalty applies to any superset of the pair
        assert_eq!(c.cost(SurveySet::from_iter([0, 1, 2])), 14.0);
        assert_eq!(c.cost(SurveySet::from_iter([1, 2])), 4.0);
    }

    #[test]
    fn overrides_take_precedence() {
        let tau = SurveySet::from_iter([0, 1]);
        let c = CostModel::paper_style(2, 4.0, &[(0, 1)], 10.0).with_override(tau, 1.0);
        assert_eq!(c.cost(tau), 1.0);
        // singletons unaffected
        assert_eq!(c.cost(SurveySet::singleton(0)), 4.0);
    }

    #[test]
    fn multiple_penalties_accumulate() {
        let c = CostModel::paper_style(3, 4.0, &[(0, 1), (1, 2)], 10.0);
        assert_eq!(c.cost(SurveySet::from_iter([0, 1, 2])), 24.0);
    }

    #[test]
    fn constant_base() {
        let c = CostModel::new(vec![4.0; 4], SharingBase::Constant(7.0));
        assert_eq!(c.cost(SurveySet::from_iter([0, 3])), 7.0);
        assert_eq!(c.cost(SurveySet::singleton(2)), 7.0);
    }

    #[test]
    fn assignment_cost_sums_individuals() {
        let c = CostModel::paper_style(2, 4.0, &[], 0.0);
        let taus = [
            SurveySet::from_iter([0, 1]),
            SurveySet::singleton(0),
            SurveySet::singleton(1),
        ];
        assert_eq!(c.assignment_cost(taus.iter()), 12.0);
    }

    #[test]
    #[should_panic(expected = "two distinct surveys")]
    fn self_penalty_rejected() {
        CostModel::indifferent(vec![1.0]).with_penalty(0, 0, 5.0);
    }
}
