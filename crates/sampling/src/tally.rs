//! The σ interner: `F(A_i, σ)`, `L(σ)` and every row's selection id,
//! all counted by the one code path that turns `σ(t)` into counts.
//!
//! MR-CPS needs each tuple's selection `σ(t)` for the answer
//! frequencies `F(A_i, σ)` of the first phase (§5.2.5.1), for the
//! Figure 4 limits `L(σ)`, and for the combined MR-SQE job and the
//! residual rounds (whose keys are selections). The initial MR-MQE scan
//! already finds, for every query, the stratum a tuple falls in — that
//! vector *is* `σ(t)`. `L(σ)` and `F(A_i, ·)` are the same full-order
//! marginal of the stratum-id cube over two inputs, the dataset and an
//! answer (Afrati, Sharma, Ullman and Ullman, "Computing Marginals Using
//! MapReduce"), so one [`SigmaTally`] counts both. On a joint
//! [`SelectionMatcher`] grid the row's selection index maps to its local
//! id through a dense slot table; only the first row of each selection
//! (and every row on the per-query fallback) looks its packed `[i32]`
//! form up in an Fx-hashed table, and only an unseen selection
//! allocates.
//!
//! Each map task interns `σ(t)` into a [`SigmaTally`] — its map task's
//! side state ([`CombineJob::Side`](stratmr_mapreduce::CombineJob::Side)),
//! so the counts never enter the shuffle and the scan's keys, group
//! seeds and shuffle bytes stay MR-MQE's own. MR-CPS merges the
//! tallies in split order into one selection table: dense global ids
//! (identical at every thread count), the counts `L(σ)`, and one id per
//! input row, which the later jobs look up instead of matching the
//! stratum formulas again. [`SigmaTally::of_tuples`] runs an answer's
//! tuples through the same interner for `F(A_i, σ)`.

use crate::sst::{StratumSelection, NONE};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use stratmr_mapreduce::FxBuild;
use stratmr_population::Individual;
use stratmr_query::{SelectionMatcher, StratumId, MAX_SURVEYS};

/// What a scan does with each tuple's `σ(t)` besides emitting its keys.
///
/// `()` ignores it, and its empty methods compile away: a job generic
/// over the sink pays nothing for the plain instance.
pub(crate) trait SelectionSink: Default + Send {
    /// Record the stratum that query `query` assigns the current tuple.
    fn note(&mut self, query: usize, stratum: Option<StratumId>);

    /// Close the current tuple, whose selection spans `n_queries`
    /// queries (every one of them was [`note`](Self::note)d).
    /// `selection` is its index on the scan's joint grid, if any (see
    /// [`SelectionMatcher::for_each_stratum`]).
    fn end_row(&mut self, n_queries: usize, selection: Option<usize>);

    /// Simulated wire size of the finished state.
    fn side_bytes(&self) -> u64;
}

impl SelectionSink for () {
    #[inline(always)]
    fn note(&mut self, _query: usize, _stratum: Option<StratumId>) {}

    #[inline(always)]
    fn end_row(&mut self, _n_queries: usize, _selection: Option<usize>) {}

    fn side_bytes(&self) -> u64 {
        0
    }
}

/// A hash key looked up by the packed `[i32]` form of a selection, so a
/// row's selection is found without allocating it.
#[derive(Debug)]
struct Key(StratumSelection);

impl Borrow<[i32]> for Key {
    fn borrow(&self) -> &[i32] {
        self.0.packed()
    }
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.packed().hash(state);
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.0.packed() == other.0.packed()
    }
}

impl Eq for Key {}

/// Selections with dense ids in first-insertion order, and a count per
/// selection.
#[derive(Debug, Default)]
struct Counts {
    index: HashMap<Key, u32, FxBuild>,
    sels: Vec<StratumSelection>,
    counts: Vec<u64>,
}

impl Counts {
    /// The id of the packed selection, added with count 0 (the only
    /// allocation) when new.
    #[inline]
    fn id_of(&mut self, packed: &[i32], make: impl FnOnce() -> StratumSelection) -> u32 {
        if let Some(&id) = self.index.get(packed) {
            return id;
        }
        let id = self.sels.len() as u32;
        let sel = make();
        self.index.insert(Key(sel.clone()), id);
        self.sels.push(sel);
        self.counts.push(0);
        id
    }
}

/// Slot table entry of a grid selection the tally has not seen.
const UNSEEN: u32 = u32::MAX;

/// One map task's σ tally: the task's selections with local ids, each
/// one's count, and the local id of every row in scan order.
#[derive(Debug, Default)]
pub struct SigmaTally {
    /// `σ(t)` of the row being scanned, one entry per query.
    row: [i32; MAX_SURVEYS],
    table: Counts,
    /// The local id of each joint-grid selection index seen so far
    /// ([`UNSEEN`] for none); the indexes all come from one matcher.
    slots: Vec<u32>,
    rows: Vec<u32>,
}

impl SigmaTally {
    /// The tally of `tuples`, each matched against `matcher` exactly as
    /// the MR-MQE scan matches a row. Over a first-phase answer `A_i`
    /// its counts are `F(A_i, σ)`.
    pub fn of_tuples<'t>(
        tuples: impl IntoIterator<Item = &'t Individual>,
        matcher: &SelectionMatcher<'_>,
    ) -> Self {
        let mut tally = Self::default();
        for t in tuples {
            let selection = matcher.for_each_stratum(t, |i, k| tally.note(i, k));
            tally.end_row(matcher.len(), selection);
        }
        tally
    }

    /// The tallied selections, in first-occurrence order.
    pub(crate) fn selections(&self) -> &[StratumSelection] {
        &self.table.sels
    }

    /// How many tallied rows carry `sel` (0 when none does).
    pub fn count(&self, sel: &StratumSelection) -> u64 {
        let table = &self.table;
        table
            .index
            .get(sel.packed())
            .map_or(0, |&id| table.counts[id as usize])
    }

    /// Record one row whose selection is `sel`.
    pub fn record(&mut self, sel: &StratumSelection) {
        let id = self.table.id_of(sel.packed(), || sel.clone());
        self.bump(id);
    }

    #[inline]
    fn bump(&mut self, id: u32) {
        self.table.counts[id as usize] += 1;
        self.rows.push(id);
    }
}

impl SelectionSink for SigmaTally {
    #[inline]
    fn note(&mut self, query: usize, stratum: Option<StratumId>) {
        self.row[query] = stratum.map_or(NONE, |k| k as i32);
    }

    #[inline]
    fn end_row(&mut self, n_queries: usize, selection: Option<usize>) {
        let row = &self.row[..n_queries];
        let known = selection.and_then(|s| self.slots.get(s).copied());
        let id = match known {
            Some(id) if id != UNSEEN => {
                debug_assert_eq!(self.table.sels[id as usize].packed(), row);
                id
            }
            _ => {
                let id = self.table.id_of(row, || StratumSelection::from_packed(row));
                if let Some(s) = selection {
                    if s >= self.slots.len() {
                        self.slots.resize(s + 1, UNSEEN);
                    }
                    self.slots[s] = id;
                }
                id
            }
        };
        self.bump(id);
    }

    /// The count table, `4·n + 8` bytes per selection — the Figure 4
    /// job's wire size of one `(σ, count)` pair.
    fn side_bytes(&self) -> u64 {
        let sels = &self.table.sels;
        let n = sels.first().map_or(0, StratumSelection::n_queries) as u64;
        sels.len() as u64 * (4 * n + 8)
    }
}

/// Every selection occurring in the scanned data, merged from the map
/// tasks' tallies in split order.
#[derive(Debug, Default)]
pub(crate) struct SelectionTable {
    table: Counts,
}

impl SelectionTable {
    /// Merge per-task tallies, given in split order, into the table and
    /// the global selection id of every row (one vector per split, in
    /// split order). Global ids follow first occurrence in (split, row)
    /// order, so they do not depend on how tasks were scheduled.
    pub fn merge(tallies: Vec<SigmaTally>) -> (Self, Vec<Vec<u32>>) {
        let mut table = Self::default();
        let mut split_rows = Vec::with_capacity(tallies.len());
        for tally in tallies {
            let remap: Vec<u32> = tally
                .table
                .sels
                .into_iter()
                .zip(tally.table.counts)
                .map(|(sel, count)| {
                    let id = table.intern(sel);
                    table.table.counts[id as usize] += count;
                    id
                })
                .collect();
            let mut rows = tally.rows;
            for r in &mut rows {
                *r = remap[*r as usize];
            }
            split_rows.push(rows);
        }
        (table, split_rows)
    }

    /// The id of `sel`, adding it with count 0 when no row carried it.
    pub(crate) fn intern(&mut self, sel: StratumSelection) -> u32 {
        self.table.id_of(sel.packed(), || sel.clone())
    }

    /// Number of distinct selections.
    pub fn len(&self) -> usize {
        self.table.sels.len()
    }

    /// The selection with id `id`.
    pub fn selection(&self, id: u32) -> &StratumSelection {
        &self.table.sels[id as usize]
    }

    /// `L(σ)` of the selection with id `id`: how many rows carry it.
    pub fn count(&self, id: u32) -> u64 {
        self.table.counts[id as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use stratmr_population::AttrId;
    use stratmr_query::{Formula, SsdQuery, StratumConstraint};

    fn sel(choices: &[Option<usize>]) -> StratumSelection {
        StratumSelection::from_choices(choices)
    }

    fn query(formulas: Vec<Formula>) -> SsdQuery {
        SsdQuery::new(
            formulas
                .into_iter()
                .map(|f| StratumConstraint::new(f, 1))
                .collect(),
        )
    }

    fn tally_of(rows: &[&[Option<usize>]]) -> SigmaTally {
        let mut tally = SigmaTally::default();
        for row in rows {
            for (i, &k) in row.iter().enumerate() {
                tally.note(i, k);
            }
            tally.end_row(row.len(), None);
        }
        tally
    }

    #[test]
    fn scan_rows_and_recorded_rows_intern_alike() {
        let rows: [&[Option<usize>]; 4] = [
            &[Some(0), None],
            &[Some(1), Some(2)],
            &[Some(0), None],
            &[None, None],
        ];
        let scanned = tally_of(&rows);
        let mut recorded = SigmaTally::default();
        for row in rows {
            recorded.record(&sel(row));
        }
        for t in [&scanned, &recorded] {
            assert_eq!(t.rows, vec![0, 1, 0, 2]);
            assert_eq!(t.table.counts, vec![2, 1, 1]);
            assert_eq!(t.table.sels[1], sel(&[Some(1), Some(2)]));
        }
        // three selections over two queries: 3 × (4·2 + 8)
        assert_eq!(scanned.side_bytes(), 48);
        assert_eq!(SigmaTally::default().side_bytes(), 0);
    }

    #[test]
    fn merge_assigns_ids_in_split_order_and_sums_counts() {
        let a = tally_of(&[&[Some(1)], &[Some(0)], &[Some(1)]]);
        let b = tally_of(&[&[None], &[Some(0)]]);
        let empty = SigmaTally::default();
        let (table, rows) = SelectionTable::merge(vec![a, empty, b]);
        assert_eq!(table.len(), 3);
        assert_eq!(table.selection(0), &sel(&[Some(1)]));
        assert_eq!(table.selection(1), &sel(&[Some(0)]));
        assert_eq!(table.selection(2), &sel(&[None]));
        assert_eq!(
            (0..3).map(|id| table.count(id)).collect::<Vec<_>>(),
            vec![2, 2, 1]
        );
        assert_eq!(rows, [vec![0, 1, 0], vec![], vec![2, 1]]);
    }

    #[test]
    fn interning_an_absent_selection_gives_it_a_zero_count() {
        let (mut table, _) = SelectionTable::merge(vec![tally_of(&[&[Some(0)]])]);
        assert_eq!(table.intern(sel(&[Some(0)])), 0);
        let id = table.intern(sel(&[Some(3)]));
        assert_eq!(id, 1);
        assert_eq!(table.count(id), 0);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn answer_tally_counts_each_selection() {
        let x = AttrId(0);
        // Q1 splits at 50; Q2's two bands leave x ≥ 80 out
        let qs = vec![
            query(vec![Formula::lt(x, 50), Formula::ge(x, 50)]),
            query(vec![Formula::lt(x, 20), Formula::between(x, 20, 79)]),
        ];
        let ms = SelectionMatcher::new(&qs);
        let answer: Vec<Individual> = [10, 10, 60, 90]
            .into_iter()
            .enumerate()
            .map(|(id, v)| Individual::new(id as u64, vec![v], 0))
            .collect();
        let tally = SigmaTally::of_tuples(&answer, &ms);
        // distinct selections in first-occurrence order
        assert_eq!(
            tally.selections(),
            [
                sel(&[Some(0), Some(0)]),
                sel(&[Some(1), Some(1)]),
                sel(&[Some(1), None])
            ]
        );
        assert_eq!(tally.count(&sel(&[Some(0), Some(0)])), 2);
        assert_eq!(tally.count(&sel(&[Some(1), Some(1)])), 1);
        assert_eq!(tally.count(&sel(&[Some(1), None])), 1);
        let total: u64 = tally.selections().iter().map(|s| tally.count(s)).sum();
        assert_eq!(total, answer.len() as u64);
        // absent selections read 0
        assert_eq!(tally.count(&sel(&[None, None])), 0);
        assert_eq!(tally.count(&sel(&[Some(0), Some(1)])), 0);
        // a second pass gives the same ids, rows and counts
        let again = SigmaTally::of_tuples(&answer, &ms);
        assert_eq!(again.selections(), tally.selections());
        assert_eq!(again.rows, tally.rows);
        assert_eq!(again.table.counts, tally.table.counts);
        assert!(SigmaTally::of_tuples(&[], &ms).selections().is_empty());
    }

    #[test]
    fn answer_tally_matches_a_brute_force_count() {
        let (x, y) = (AttrId(0), AttrId(1));
        // four surveys whose strata cut across each other and leave gaps
        let qs = vec![
            query(vec![Formula::lt(x, 30), Formula::between(x, 30, 69)]),
            query(vec![Formula::lt(y, 50), Formula::ge(y, 50)]),
            query(vec![
                Formula::lt(x, 50).and(Formula::ge(y, 25)),
                Formula::ge(x, 50).and(Formula::lt(y, 75)),
            ]),
            query(vec![
                Formula::between(x, 10, 19),
                Formula::between(y, 40, 59),
                Formula::ge(x, 90),
            ]),
        ];
        let m = SelectionMatcher::new(&qs);
        assert!(m.is_joint());
        for seed in 0..3 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let population: Vec<Individual> = (0..600)
                .map(|id| {
                    Individual::new(id, vec![rng.gen_range(0..100), rng.gen_range(0..100)], 0)
                })
                .collect();
            // an answer-like subset of about a third of the population
            let answer: Vec<&Individual> =
                population.iter().filter(|_| rng.gen_bool(0.35)).collect();
            let tally = SigmaTally::of_tuples(answer.iter().copied(), &m);
            let mut brute: HashMap<StratumSelection, u64> = HashMap::new();
            for t in &answer {
                let choices: Vec<Option<usize>> =
                    qs.iter().map(|q| q.matching_stratum(t)).collect();
                *brute
                    .entry(StratumSelection::from_choices(&choices))
                    .or_default() += 1;
            }
            assert!(brute.len() > 10, "seed {seed}: too few selections to test");
            assert_eq!(tally.selections().len(), brute.len(), "seed {seed}");
            for (s, &count) in &brute {
                assert_eq!(tally.count(s), count, "seed {seed}: F(A, {s})");
            }
            let total: u64 = tally.selections().iter().map(|s| tally.count(s)).sum();
            assert_eq!(total, answer.len() as u64, "seed {seed}");
        }
    }
}
