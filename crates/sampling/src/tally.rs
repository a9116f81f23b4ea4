//! The σ tally: `L(σ)` for every occurring selection, and every row's
//! selection id, as a by-product of a scan that computes `σ(t)` anyway.
//!
//! MR-CPS needs each tuple's selection `σ(t)` in three places: the
//! Figure 4 counts `L(σ)`, the combined MR-SQE job (whose Q′ strata are
//! selections) and the residual rounds. The initial MR-MQE scan already
//! finds, for every query, the stratum a tuple falls in — that vector
//! *is* `σ(t)`. L(σ) is the full-order marginal of the stratum-id cube
//! (Afrati, Sharma, Ullman and Ullman, "Computing Marginals Using
//! MapReduce"), so it can come from the same round over the data.
//!
//! Each map task interns `σ(t)` into a [`SigmaTally`] — its map task's
//! side state ([`CombineJob::Side`](stratmr_mapreduce::CombineJob::Side)),
//! so the counts never enter the shuffle and the scan's keys, group
//! seeds and shuffle bytes stay MR-MQE's own. MR-CPS merges the
//! tallies in split order into one selection table: dense global ids
//! (identical at every thread count), the counts `L(σ)`, and one id per
//! input row, which the later jobs look up instead of matching the
//! stratum formulas again.

use crate::sst::{StratumSelection, NONE};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use stratmr_mapreduce::FxBuild;
use stratmr_query::{StratumId, MAX_SURVEYS};

/// What a scan does with each tuple's `σ(t)` besides emitting its keys.
///
/// `()` ignores it, and its empty methods compile away: a job generic
/// over the sink pays nothing for the plain instance.
pub trait SelectionSink: Default + Send {
    /// Record the stratum that query `query` assigns the current tuple.
    fn note(&mut self, query: usize, stratum: Option<StratumId>);

    /// Close the current tuple, whose selection spans `n_queries`
    /// queries (every one of them was [`note`](Self::note)d).
    fn end_row(&mut self, n_queries: usize);

    /// Simulated wire size of the finished state.
    fn side_bytes(&self) -> u64;
}

impl SelectionSink for () {
    #[inline(always)]
    fn note(&mut self, _query: usize, _stratum: Option<StratumId>) {}

    #[inline(always)]
    fn end_row(&mut self, _n_queries: usize) {}

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

/// One map task's σ tally: the task's selections with local ids, each
/// one's count, and the local id of every row in scan order.
#[derive(Debug, Default)]
pub struct SigmaTally {
    /// `σ(t)` of the row being scanned, one entry per query.
    row: [i32; MAX_SURVEYS],
    table: Counts,
    rows: Vec<u32>,
}

impl SigmaTally {
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
    fn end_row(&mut self, n_queries: usize) {
        let row = &self.row[..n_queries];
        let id = self.table.id_of(row, || StratumSelection::from_packed(row));
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
    pub fn intern(&mut self, sel: StratumSelection) -> u32 {
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

    fn sel(choices: &[Option<usize>]) -> StratumSelection {
        StratumSelection::from_choices(choices)
    }

    fn tally_of(rows: &[&[Option<usize>]]) -> SigmaTally {
        let mut tally = SigmaTally::default();
        for row in rows {
            for (i, &k) in row.iter().enumerate() {
                tally.note(i, k);
            }
            tally.end_row(row.len());
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
}
