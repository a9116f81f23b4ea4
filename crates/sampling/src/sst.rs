//! Stratum selections (§5.2.2).
//!
//! A *stratum selection* σ picks at most one stratum constraint from each
//! SSD query. The selection of a tuple, `σ(t)`, is the maximal selection
//! it satisfies: for each query, the stratum the tuple falls in (if any).
//! CPS needs, for every answer `A_i` and every σ, the *stratum-selection
//! frequency* `F(A_i, σ)`. The paper stores these in a depth-`n` trie,
//! the SST of Figure 5; here the [`SigmaTally`](crate::tally::SigmaTally)
//! interner counts them, as it counts the limits `L(σ)` (DESIGN.md,
//! substitution 7).

use std::sync::Arc;
use stratmr_population::Individual;
use stratmr_query::{Formula, SelectionMatcher, SsdQuery, StratumId, SurveySet};

/// Sentinel for "no stratum of this query" in the packed representation.
pub(crate) const NONE: i32 = -1;

/// A stratum selection σ over `n` queries: for each query, an optional
/// stratum constraint index.
///
/// Cheap to clone and hashable — it serves as a MapReduce key in the
/// selection-limit job (Figure 4). Its `Ord` (per-query choices compared
/// in query order, "no stratum" first) orders the relevant selections
/// `[[Q]]*`: the program's blocks, Q′'s strata and the EXPLAIN's rows.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StratumSelection(Arc<[i32]>);

impl StratumSelection {
    /// Build from explicit per-query choices.
    pub fn from_choices(choices: &[Option<StratumId>]) -> Self {
        Self(
            choices
                .iter()
                .map(|c| c.map_or(NONE, |k| k as i32))
                .collect(),
        )
    }

    /// The selection of tuple `t`: for each of the matcher's queries,
    /// the (unique) stratum constraint `t` satisfies.
    pub fn of(t: &Individual, matcher: &SelectionMatcher<'_>) -> Self {
        let mut packed = Vec::with_capacity(matcher.len());
        matcher.for_each_stratum(t, |_, k| packed.push(k.map_or(NONE, |k| k as i32)));
        Self(packed.into())
    }

    /// Build from the packed form: one stratum index per query, [`NONE`]
    /// for none.
    pub(crate) fn from_packed(packed: &[i32]) -> Self {
        Self(packed.into())
    }

    /// The packed form (see [`StratumSelection::from_packed`]).
    pub(crate) fn packed(&self) -> &[i32] {
        &self.0
    }

    /// Number of queries the selection spans.
    pub(crate) fn n_queries(&self) -> usize {
        self.0.len()
    }

    /// The stratum chosen for query `i`, if any.
    pub(crate) fn stratum_of(&self, i: usize) -> Option<StratumId> {
        match self.0[i] {
            NONE => None,
            k => Some(k as usize),
        }
    }

    /// The SSD indexes `I(σ)`: queries that have a stratum constraint in
    /// the selection.
    pub(crate) fn survey_indexes(&self) -> SurveySet {
        SurveySet::from_iter(
            self.0
                .iter()
                .enumerate()
                .filter(|&(_, &k)| k != NONE)
                .map(|(i, _)| i),
        )
    }

    /// True when no query has a stratum in the selection.
    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|&k| k == NONE)
    }

    /// The propositional projection `π_i(σ)` (§5.2.2): the chosen
    /// stratum's condition, or the negation of the disjunction of all of
    /// query `i`'s stratum conditions when none is chosen.
    pub(crate) fn projection(&self, i: usize, queries: &[SsdQuery]) -> Formula {
        match self.stratum_of(i) {
            Some(k) => queries[i].stratum(k).formula.clone(),
            None => Formula::any(queries[i].constraints().iter().map(|s| s.formula.clone())).not(),
        }
    }

    /// The full condition `ϕ(σ) = π_1(σ) ∧ … ∧ π_n(σ)` identifying the
    /// tuples that satisfy σ (and no other stratum).
    pub fn formula(&self, queries: &[SsdQuery]) -> Formula {
        Formula::all((0..self.0.len()).map(|i| self.projection(i, queries)))
    }
}

impl std::fmt::Display for StratumSelection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "⟨")?;
        for (i, &k) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            match k {
                NONE => write!(f, "·")?,
                k => write!(f, "s{},{}", i + 1, k)?,
            }
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stratmr_population::AttrId;
    use stratmr_query::{Formula, StratumConstraint};

    fn x() -> AttrId {
        AttrId(0)
    }

    fn ind(id: u64, v: i64) -> Individual {
        Individual::new(id, vec![v], 0)
    }

    /// Q1: men/women split at 50; Q2: three bands.
    fn queries() -> Vec<SsdQuery> {
        vec![
            SsdQuery::new(vec![
                StratumConstraint::new(Formula::lt(x(), 50), 2),
                StratumConstraint::new(Formula::ge(x(), 50), 2),
            ]),
            SsdQuery::new(vec![
                StratumConstraint::new(Formula::lt(x(), 20), 1),
                StratumConstraint::new(Formula::between(x(), 20, 79), 1),
            ]),
        ]
    }

    #[test]
    fn selection_of_tuple() {
        let qs = queries();
        let ms = SelectionMatcher::new(&qs);
        let sel = StratumSelection::of(&ind(0, 10), &ms);
        assert_eq!(sel.stratum_of(0), Some(0));
        assert_eq!(sel.stratum_of(1), Some(0));
        assert_eq!(sel.survey_indexes().iter().collect::<Vec<_>>(), vec![0, 1]);
        // x = 90: stratum 1 of Q1, no stratum of Q2
        let sel2 = StratumSelection::of(&ind(1, 90), &ms);
        assert_eq!(sel2.stratum_of(0), Some(1));
        assert_eq!(sel2.stratum_of(1), None);
        assert_eq!(sel2.survey_indexes().len(), 1);
        assert!(!sel2.is_empty());
    }

    #[test]
    fn projection_and_formula_semantics() {
        let qs = queries();
        let ms = SelectionMatcher::new(&qs);
        let t = ind(0, 60); // Q1: stratum 1, Q2: stratum 1 (20..=79)
        let sel = StratumSelection::of(&t, &ms);
        // the tuple satisfies its own selection formula
        assert!(sel.formula(&qs).eval(&t));
        // a tuple with a different selection fails the formula
        let other = ind(1, 90);
        assert_ne!(StratumSelection::of(&other, &ms), sel);
        assert!(!sel.formula(&qs).eval(&other));
        // negated projection: selection with no Q2 stratum rejects tuples
        // inside Q2's strata
        let sel90 = StratumSelection::of(&other, &ms);
        assert!(sel90.formula(&qs).eval(&other));
        assert!(!sel90.formula(&qs).eval(&ind(2, 55)));
    }

    #[test]
    fn selections_partition_the_population() {
        // every tuple satisfies exactly one selection formula
        let qs = queries();
        let ms = SelectionMatcher::new(&qs);
        for v in 0..100 {
            let t = ind(v as u64, v);
            let own = StratumSelection::of(&t, &ms);
            assert!(own.formula(&qs).eval(&t), "x={v} fails own σ");
        }
    }

    #[test]
    fn display_renders_selections() {
        let s = StratumSelection::from_choices(&[Some(0), None, Some(2)]);
        assert_eq!(s.to_string(), "⟨s1,0,·,s3,2⟩");
    }
}
