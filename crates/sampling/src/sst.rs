//! Stratum selections and the stratum selection trie — SST (§5.2.2,
//! §5.2.5.1, Figure 5).
//!
//! A *stratum selection* σ picks at most one stratum constraint from each
//! SSD query. The selection of a tuple, `σ(t)`, is the maximal selection
//! it satisfies: for each query, the stratum the tuple falls in (if any).
//! CPS needs, for every answer `A_i` and every σ, the *stratum-selection
//! frequency* `F(A_i, σ)` — the paper stores these in a depth-`n` trie
//! whose leaves carry instance counts.

use std::collections::HashMap;
use std::sync::Arc;
use stratmr_population::Individual;
use stratmr_query::{Formula, SsdQuery, StratumId, StratumMatcher, SurveySet};

/// Sentinel for "no stratum of this query" in the packed representation.
pub(crate) const NONE: i32 = -1;

/// A stratum selection σ over `n` queries: for each query, an optional
/// stratum constraint index.
///
/// Cheap to clone and hashable — it serves as a MapReduce key in the
/// selection-limit job (Figure 4).
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

    /// The selection of tuple `t`: for each query (one matcher each),
    /// the (unique) stratum constraint `t` satisfies.
    pub fn of(t: &Individual, matchers: &[StratumMatcher<'_>]) -> Self {
        Self(
            matchers
                .iter()
                .map(|m| m.matching_stratum(t).map_or(NONE, |k| k as i32))
                .collect(),
        )
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
    pub fn n_queries(&self) -> usize {
        self.0.len()
    }

    /// The stratum chosen for query `i`, if any.
    pub fn stratum_of(&self, i: usize) -> Option<StratumId> {
        match self.0[i] {
            NONE => None,
            k => Some(k as usize),
        }
    }

    /// The SSD indexes `I(σ)`: queries that have a stratum constraint in
    /// the selection.
    pub fn survey_indexes(&self) -> SurveySet {
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
    pub fn projection(&self, i: usize, queries: &[SsdQuery]) -> Formula {
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

    /// Does tuple `t` satisfy the selection — i.e. is `σ(t) = σ`?
    pub fn matches(&self, t: &Individual, matchers: &[StratumMatcher<'_>]) -> bool {
        self == &Self::of(t, matchers)
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

/// One trie node: children keyed by the stratum choice at this depth.
#[derive(Debug, Clone, Default)]
struct Node {
    children: HashMap<i32, usize>,
    count: u64,
}

/// The stratum selection trie of Figure 5.
///
/// Depth equals the number of queries; a path from the root picks one
/// (optional) stratum per query, and the leaf stores how many inserted
/// tuples carried exactly that selection.
#[derive(Debug, Clone)]
pub struct Sst {
    n_queries: usize,
    nodes: Vec<Node>,
    total: u64,
}

impl Sst {
    /// An empty trie over `n_queries` queries.
    pub fn new(n_queries: usize) -> Self {
        Self {
            n_queries,
            nodes: vec![Node::default()],
            total: 0,
        }
    }

    /// Build the trie of `σ(t)` for every tuple.
    pub fn from_tuples<'a>(
        tuples: impl IntoIterator<Item = &'a Individual>,
        matchers: &[StratumMatcher<'_>],
    ) -> Self {
        let mut sst = Self::new(matchers.len());
        for t in tuples {
            sst.insert(&StratumSelection::of(t, matchers));
        }
        sst
    }

    /// Insert one instance of a selection.
    pub fn insert(&mut self, sel: &StratumSelection) {
        self.insert_count(sel, 1);
    }

    /// Insert `count` instances of a selection.
    ///
    /// # Panics
    /// Panics when the selection's arity differs from the trie's depth.
    pub fn insert_count(&mut self, sel: &StratumSelection, count: u64) {
        assert_eq!(sel.n_queries(), self.n_queries, "selection arity mismatch");
        let mut node = 0usize;
        for depth in 0..self.n_queries {
            let key = sel.0[depth];
            node = match self.nodes[node].children.get(&key) {
                Some(&child) => child,
                None => {
                    let child = self.nodes.len();
                    self.nodes.push(Node::default());
                    self.nodes[node].children.insert(key, child);
                    child
                }
            };
        }
        self.nodes[node].count += count;
        self.total += count;
    }

    /// The instance count of a selection (0 when absent).
    pub fn count(&self, sel: &StratumSelection) -> u64 {
        assert_eq!(sel.n_queries(), self.n_queries, "selection arity mismatch");
        let mut node = 0usize;
        for depth in 0..self.n_queries {
            match self.nodes[node].children.get(&sel.0[depth]) {
                Some(&child) => node = child,
                None => return 0,
            }
        }
        self.nodes[node].count
    }

    /// Total inserted instances.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct selections stored.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// True when nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Iterate over `(selection, count)` for every stored selection
    /// (depth-first, deterministic order).
    pub fn iter(&self) -> impl Iterator<Item = (StratumSelection, u64)> + '_ {
        let mut out = Vec::new();
        let mut path = vec![0i32; self.n_queries];
        self.collect(0, 0, &mut path, &mut out);
        out.into_iter()
    }

    fn collect(
        &self,
        node: usize,
        depth: usize,
        path: &mut Vec<i32>,
        out: &mut Vec<(StratumSelection, u64)>,
    ) {
        if depth == self.n_queries {
            if self.nodes[node].count > 0 {
                out.push((
                    StratumSelection(path.as_slice().into()),
                    self.nodes[node].count,
                ));
            }
            return;
        }
        // deterministic child order
        let mut keys: Vec<i32> = self.nodes[node].children.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            let child = self.nodes[node].children[&key];
            path[depth] = key;
            self.collect(child, depth + 1, path, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stratmr_population::{AttrDef, AttrId, Schema};
    use stratmr_query::{Formula, StratumConstraint};

    fn x() -> AttrId {
        AttrId(0)
    }

    fn schema() -> Schema {
        Schema::new(vec![AttrDef::numeric("x", 0, 99)])
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
        let ms = StratumMatcher::all(&qs);
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
        let ms = StratumMatcher::all(&qs);
        let t = ind(0, 60); // Q1: stratum 1, Q2: stratum 1 (20..=79)
        let sel = StratumSelection::of(&t, &ms);
        // the tuple satisfies its own selection formula
        assert!(sel.formula(&qs).eval(&t));
        assert!(sel.matches(&t, &ms));
        // a tuple with a different selection fails the formula
        let other = ind(1, 90);
        assert!(!sel.formula(&qs).eval(&other));
        assert!(!sel.matches(&other, &ms));
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
        let ms = StratumMatcher::all(&qs);
        let _ = schema();
        for v in 0..100 {
            let t = ind(v as u64, v);
            let own = StratumSelection::of(&t, &ms);
            assert!(own.formula(&qs).eval(&t), "x={v} fails own σ");
        }
    }

    #[test]
    fn trie_counts_instances() {
        let qs = queries();
        let ms = StratumMatcher::all(&qs);
        let tuples: Vec<Individual> = vec![ind(0, 10), ind(1, 10), ind(2, 60), ind(3, 90)];
        let sst = Sst::from_tuples(tuples.iter(), &ms);
        assert_eq!(sst.total(), 4);
        assert_eq!(sst.len(), 3);
        let sel_10 = StratumSelection::of(&ind(9, 10), &ms);
        assert_eq!(sst.count(&sel_10), 2);
        let sel_60 = StratumSelection::of(&ind(9, 60), &ms);
        assert_eq!(sst.count(&sel_60), 1);
        let absent = StratumSelection::from_choices(&[None, None]);
        assert_eq!(sst.count(&absent), 0);
    }

    #[test]
    fn trie_iteration_is_deterministic_and_complete() {
        let qs = queries();
        let mut sst = Sst::new(2);
        let sels = [
            StratumSelection::from_choices(&[Some(0), Some(1)]),
            StratumSelection::from_choices(&[Some(1), None]),
            StratumSelection::from_choices(&[None, Some(0)]),
        ];
        for (i, s) in sels.iter().enumerate() {
            sst.insert_count(s, (i + 1) as u64);
        }
        let collected: Vec<(StratumSelection, u64)> = sst.iter().collect();
        assert_eq!(collected.len(), 3);
        let total: u64 = collected.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 6);
        // a second iteration yields the same order
        let again: Vec<(StratumSelection, u64)> = sst.iter().collect();
        assert_eq!(collected, again);
        let _ = qs;
    }

    #[test]
    fn insert_count_accumulates() {
        let mut sst = Sst::new(1);
        let s = StratumSelection::from_choices(&[Some(0)]);
        sst.insert_count(&s, 5);
        sst.insert(&s);
        assert_eq!(sst.count(&s), 6);
        assert_eq!(sst.total(), 6);
        assert!(!sst.is_empty());
    }

    #[test]
    fn display_renders_selections() {
        let s = StratumSelection::from_choices(&[Some(0), None, Some(2)]);
        assert_eq!(s.to_string(), "⟨s1,0,·,s3,2⟩");
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_rejected() {
        let mut sst = Sst::new(2);
        sst.insert(&StratumSelection::from_choices(&[Some(0)]));
    }
}
