//! Compiled stratum matching.
//!
//! [`SsdQuery::matching_stratum`] evaluates the stratum formulas one by
//! one and returns the first that holds — the reference semantics, and
//! the hot path of every mapper. The paper's generated strata (§6.1.2)
//! are cartesian products of per-attribute subranges: each formula is a
//! conjunction of ranges, i.e. a box. [`SelectionMatcher`] compiles the
//! SSD queries of an MSSD (an SSD is the case of one query) into one
//! grid: it cuts every referenced attribute at every interval boundary
//! of every query, so each cell of the grid lies wholly inside or wholly
//! outside every box. Each cell stores a dense selection index; the
//! selection table holds, per index, the *first* stratum of each query
//! whose box holds the cell. A lookup is then one binary search per
//! attribute plus two table reads, and gives a tuple's first-match
//! stratum in every query at once — its selection `σ(t)`.
//!
//! Any other formula shape (∨, ¬, ≠), a grid over 2^16 cells or a fill
//! past its budget keeps one lookup per query instead: each query's own
//! grid where it compiles, else the reference scan. Matchers borrow
//! their queries and every sampling call compiles its own. That takes
//! tens of microseconds for the paper's query groups, but a few
//! milliseconds for a six-query grid at the 2^16-cell budget (most of
//! it deduplicating the cells' rows).

use crate::formula::{CmpOp, Formula};
use crate::ssd::{SsdQuery, StratumId};
use std::collections::HashMap;
use stratmr_population::{AttrId, Individual};

/// Largest grid a matcher compiles; bigger ones keep per-query lookups.
const MAX_CELLS: usize = 1 << 16;

/// Cap on the cell writes spent filling a grid (strata whose boxes
/// overlap write the same cells repeatedly); past it, per-query lookups.
const MAX_FILL: usize = 4 * MAX_CELLS;

/// Selection table entry of a query no stratum of which holds the cell.
const NO_STRATUM: u32 = u32::MAX;

/// First-match stratum lookup for every SSD query of an MSSD at once:
/// the stratum of a tuple in each query, i.e. its selection `σ(t)`.
///
/// When every stratum of every query is a box, the queries share one
/// grid cut at the union of their boundaries (the §6.1.2 groups cut the
/// same attributes, so the union stays small), and one lookup gives the
/// whole selection. Otherwise each query is looked up on its own — the
/// same answers either way.
#[derive(Debug, Clone)]
pub struct SelectionMatcher<'q> {
    queries: &'q [SsdQuery],
    lookup: Lookup,
}

#[derive(Debug, Clone)]
enum Lookup {
    /// One grid over every query.
    Joint(Grid),
    /// One lookup per query: its own grid, or (`None`) the reference
    /// scan.
    PerQuery(Vec<Option<Grid>>),
}

/// The compiled form over `n` queries: one axis per cut attribute,
/// cells row-major, each cell's selection index.
#[derive(Debug, Clone)]
struct Grid {
    axes: Vec<Axis>,
    cells: Vec<u32>,
    /// `n` strata ([`NO_STRATUM`] for none) per selection index.
    selections: Vec<u32>,
    n: usize,
}

#[derive(Debug, Clone)]
struct Axis {
    attr: AttrId,
    /// Sorted, distinct cut points: a value's cell on this axis is the
    /// number of cuts `≤` it.
    cuts: Vec<i64>,
    stride: usize,
}

impl Axis {
    #[inline]
    fn cell(&self, v: i64) -> usize {
        self.cuts.partition_point(|&c| c <= v)
    }
}

/// Inclusive per-attribute bounds of a conjunction of ranges; `None`
/// when the conjunction is unsatisfiable.
type Bounds = Option<Vec<(AttrId, i64, i64)>>;

impl<'q> SelectionMatcher<'q> {
    /// Compile a matcher for `queries`.
    pub fn new(queries: &'q [SsdQuery]) -> Self {
        let lookup = match Grid::compile(queries) {
            Some(grid) => Lookup::Joint(grid),
            None => Lookup::PerQuery(
                queries
                    .iter()
                    .map(|q| Grid::compile(std::slice::from_ref(q)))
                    .collect(),
            ),
        };
        Self { queries, lookup }
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether there are no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Whether lookups go through one joint grid (`false`: one lookup
    /// per query).
    pub fn is_joint(&self) -> bool {
        matches!(self.lookup, Lookup::Joint(_))
    }

    /// Call `f(i, stratum)` for every query `i` in order, with the
    /// stratum `t` falls in — always `queries[i].matching_stratum(t)`.
    ///
    /// On the joint grid, returns `t`'s selection index: a dense id
    /// (below the grid's cell count) that two tuples share exactly
    /// when they have the same selection. `None` on per-query lookups.
    #[inline]
    pub fn for_each_stratum(
        &self,
        t: &Individual,
        mut f: impl FnMut(usize, Option<StratumId>),
    ) -> Option<usize> {
        match &self.lookup {
            Lookup::Joint(grid) => {
                let sel = grid.selection(t);
                for (i, &k) in grid.strata(sel).iter().enumerate() {
                    f(i, stratum(k));
                }
                Some(sel)
            }
            Lookup::PerQuery(grids) => {
                for (i, (q, grid)) in self.queries.iter().zip(grids).enumerate() {
                    f(
                        i,
                        match grid {
                            Some(g) => stratum(g.strata(g.selection(t))[0]),
                            None => q.matching_stratum(t),
                        },
                    );
                }
                None
            }
        }
    }
}

#[inline]
fn stratum(k: u32) -> Option<StratumId> {
    (k != NO_STRATUM).then_some(k as StratumId)
}

impl Grid {
    /// The joint grid of `queries`; `None` when some stratum is not a
    /// box or the grid is over budget.
    fn compile(queries: &[SsdQuery]) -> Option<Grid> {
        let n = queries.len();
        if n == 0 {
            return None;
        }
        let boxes: Vec<Vec<Bounds>> = queries.iter().map(boxes_of).collect::<Option<_>>()?;
        let (axes, n_cells) = axes_of(&boxes)?;
        // every cell's stratum in each query, `n` per cell
        let mut rows = vec![NO_STRATUM; n_cells * n];
        let mut budget = MAX_FILL;
        for (i, b) in boxes.iter().enumerate() {
            fill(&axes, b, &mut budget, &mut rows[i..], n)?;
        }
        // dedup the cells' rows into selection indexes
        let mut index: HashMap<&[u32], u32> = HashMap::new();
        let mut selections: Vec<u32> = Vec::new();
        let cells = rows
            .chunks_exact(n)
            .map(|row| {
                let next = index.len() as u32;
                *index.entry(row).or_insert_with(|| {
                    selections.extend_from_slice(row);
                    next
                })
            })
            .collect();
        Some(Grid {
            axes,
            cells,
            selections,
            n,
        })
    }

    /// The selection index of the cell `t` falls in.
    #[inline]
    fn selection(&self, t: &Individual) -> usize {
        let cell: usize = self
            .axes
            .iter()
            .map(|a| a.cell(t.get(a.attr)) * a.stride)
            .sum();
        self.cells[cell] as usize
    }

    /// The strata of selection `sel`, one per query.
    #[inline]
    fn strata(&self, sel: usize) -> &[u32] {
        &self.selections[sel * self.n..(sel + 1) * self.n]
    }
}

/// Each stratum's box, or `None` when some stratum is not a box.
fn boxes_of(query: &SsdQuery) -> Option<Vec<Bounds>> {
    query
        .constraints()
        .iter()
        .map(|s| bounds_of(&s.formula))
        .collect()
}

/// One axis per attribute some satisfiable box bounds, cut at every
/// box boundary of every query, and the number of cells (`None` past
/// [`MAX_CELLS`]).
fn axes_of(queries: &[Vec<Bounds>]) -> Option<(Vec<Axis>, usize)> {
    let mut axes: Vec<Axis> = Vec::new();
    for &(attr, lo, hi) in queries.iter().flatten().flatten().flatten() {
        let axis = match axes.iter_mut().find(|a| a.attr == attr) {
            Some(a) => a,
            None => {
                axes.push(Axis {
                    attr,
                    cuts: Vec::new(),
                    stride: 0,
                });
                axes.last_mut().expect("just pushed")
            }
        };
        if lo > i64::MIN {
            axis.cuts.push(lo);
        }
        if hi < i64::MAX {
            axis.cuts.push(hi + 1);
        }
    }
    axes.retain(|a| !a.cuts.is_empty());
    let mut n_cells = 1usize;
    for axis in axes.iter_mut().rev() {
        axis.cuts.sort_unstable();
        axis.cuts.dedup();
        axis.stride = n_cells;
        n_cells = n_cells
            .checked_mul(axis.cuts.len() + 1)
            .filter(|&n| n <= MAX_CELLS)?;
    }
    Some((axes, n_cells))
}

/// Write the first stratum (of `boxes`, one query's) holding each cell
/// of the grid on `axes` to `out[cell * n]`; `None` once the cell writes
/// exceed `budget`.
fn fill(
    axes: &[Axis],
    boxes: &[Bounds],
    budget: &mut usize,
    out: &mut [u32],
    n: usize,
) -> Option<()> {
    // per stratum, the inclusive cell range it covers on each axis
    let mut spans: Vec<(StratumId, Vec<(usize, usize)>)> = Vec::new();
    for (k, bounds) in boxes.iter().enumerate() {
        let Some(bounds) = bounds else { continue };
        let span: Vec<(usize, usize)> = axes
            .iter()
            .map(|a| match bounds.iter().find(|b| b.0 == a.attr) {
                Some(&(_, lo, hi)) => (a.cell(lo), a.cell(hi)),
                None => (0, a.cuts.len()),
            })
            .collect();
        let writes = span.iter().map(|&(lo, hi)| hi - lo + 1).product::<usize>();
        *budget = budget.checked_sub(writes)?;
        spans.push((k, span));
    }

    for (k, span) in &spans {
        // odometer over the covered cells; earlier strata keep theirs
        let mut at: Vec<usize> = span.iter().map(|&(lo, _)| lo).collect();
        loop {
            let cell: usize = at.iter().zip(axes).map(|(&i, a)| i * a.stride).sum();
            let slot = &mut out[cell * n];
            if *slot == NO_STRATUM {
                *slot = *k as u32;
            }
            let Some(d) = (0..at.len()).rev().find(|&d| at[d] < span[d].1) else {
                break;
            };
            at[d] += 1;
            for (i, &(lo, _)) in at.iter_mut().zip(span).skip(d + 1) {
                *i = lo;
            }
        }
    }
    Some(())
}

/// The bounds of `f` when it is a conjunction of ranges: `Some(None)`
/// for an unsatisfiable one, `None` for any other shape.
fn bounds_of(f: &Formula) -> Option<Bounds> {
    let mut ranges: Vec<(AttrId, i64, i64)> = Vec::new();
    if !collect_ranges(f, &mut ranges)? {
        return Some(None);
    }
    // intersect repeated attributes
    ranges.sort_unstable_by_key(|r| r.0);
    let mut merged: Vec<(AttrId, i64, i64)> = Vec::with_capacity(ranges.len());
    for (attr, lo, hi) in ranges {
        match merged.last_mut() {
            Some(last) if last.0 == attr => {
                last.1 = last.1.max(lo);
                last.2 = last.2.min(hi);
            }
            _ => merged.push((attr, lo, hi)),
        }
    }
    if merged.iter().any(|&(_, lo, hi)| lo > hi) {
        return Some(None);
    }
    Some(Some(merged))
}

/// Push the ranges of a conjunction; `Some(false)` when a conjunct is
/// constantly false, `None` for a shape that is not a conjunction of
/// ranges.
fn collect_ranges(f: &Formula, out: &mut Vec<(AttrId, i64, i64)>) -> Option<bool> {
    let range = match *f {
        Formula::Const(b) => return Some(b),
        Formula::InRange(a, lo, hi) => (a, lo, hi),
        Formula::Atom(a, op, c) => match op {
            CmpOp::Eq => (a, c, c),
            CmpOp::Le => (a, i64::MIN, c),
            CmpOp::Ge => (a, c, i64::MAX),
            CmpOp::Lt => match c.checked_sub(1) {
                Some(hi) => (a, i64::MIN, hi),
                None => return Some(false),
            },
            CmpOp::Gt => match c.checked_add(1) {
                Some(lo) => (a, lo, i64::MAX),
                None => return Some(false),
            },
            CmpOp::Ne => return None,
        },
        Formula::And(ref fs) => {
            let mut satisfiable = true;
            for child in fs {
                satisfiable &= collect_ranges(child, out)?;
            }
            return Some(satisfiable);
        }
        Formula::Or(_) | Formula::Not(_) => return None,
    };
    out.push(range);
    Some(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssd::StratumConstraint;

    fn query(formulas: Vec<Formula>) -> SsdQuery {
        SsdQuery::new(
            formulas
                .into_iter()
                .map(|f| StratumConstraint::new(f, 1))
                .collect(),
        )
    }

    fn agrees(q: &SsdQuery, values: impl IntoIterator<Item = i64>) {
        let m = SelectionMatcher::new(std::slice::from_ref(q));
        for v in values {
            let t = Individual::new(0, vec![v, -v], 0);
            let mut got = Vec::new();
            m.for_each_stratum(&t, |_, k| got.push(k));
            assert_eq!(got, [q.matching_stratum(&t)], "disagreement at x = {v}");
        }
    }

    fn pinned(attr: u16, v: i64) -> Formula {
        Formula::between(AttrId(attr), v, v)
    }

    #[test]
    fn oversized_grid_falls_back_to_the_scan() {
        // 300 cuts on each of two attributes: ~90k cells
        let q = query(
            (0..150)
                .map(|k| pinned(0, 2 * k).and(pinned(1, -2 * k)))
                .collect(),
        );
        assert!(!SelectionMatcher::new(std::slice::from_ref(&q)).is_joint());
        agrees(&q, 0..300);
    }

    #[test]
    fn overlap_past_the_fill_budget_falls_back_to_the_scan() {
        // a 201 × 201 grid, then seven strata covering all of it
        let mut formulas: Vec<Formula> = (0..100).map(|k| pinned(0, 2 * k)).collect();
        formulas.extend((0..100).map(|k| pinned(1, -2 * k)));
        formulas.extend((0..7).map(|_| Formula::tautology()));
        let q = query(formulas);
        assert!(!SelectionMatcher::new(std::slice::from_ref(&q)).is_joint());
        agrees(&q, -5..205);
    }

    #[test]
    fn no_queries_match_nothing() {
        let m = SelectionMatcher::new(&[]);
        assert!(m.is_empty());
        let t = Individual::new(0, vec![1], 0);
        assert_eq!(m.for_each_stratum(&t, |_, _| panic!("no query")), None);
    }
}
