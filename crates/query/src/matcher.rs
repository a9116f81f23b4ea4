//! Compiled stratum matching.
//!
//! [`SsdQuery::matching_stratum`] evaluates the stratum formulas one by
//! one and returns the first that holds — the reference semantics, and
//! the hot path of every mapper. The paper's generated strata (§6.1.2)
//! are cartesian products of per-attribute subranges: each formula is a
//! conjunction of ranges, i.e. a box. For such queries
//! [`StratumMatcher`] cuts every referenced attribute at every interval
//! boundary, so each cell of the resulting grid lies wholly inside or
//! wholly outside every box, and stores the *first* stratum whose box
//! holds the cell. A lookup is then one binary search per attribute plus
//! one table read, with exactly the reference's first-match answer.
//!
//! Any other formula shape (∨, ¬, ≠), or a grid over 2^16 cells, keeps
//! the reference scan. Matchers borrow their query and are cheap to
//! build (microseconds for a 256-stratum query), so every sampling call
//! compiles its own.

use crate::formula::{CmpOp, Formula};
use crate::ssd::{SsdQuery, StratumId};
use stratmr_population::{AttrId, Individual};

/// Largest grid a matcher compiles; bigger ones keep the linear scan.
const MAX_CELLS: usize = 1 << 16;

/// Cap on the cell writes spent filling the grid (strata whose boxes
/// overlap write the same cells repeatedly); past it, the linear scan.
const MAX_FILL: usize = 4 * MAX_CELLS;

/// Table entry of a cell no stratum holds.
const NO_STRATUM: u32 = u32::MAX;

/// First-match stratum lookup for one SSD query.
#[derive(Debug, Clone)]
pub struct StratumMatcher<'q> {
    query: &'q SsdQuery,
    grid: Option<Grid>,
}

/// The compiled form: one axis per cut attribute, cells row-major.
#[derive(Debug, Clone)]
struct Grid {
    axes: Vec<Axis>,
    cells: Vec<u32>,
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

impl<'q> StratumMatcher<'q> {
    /// Compile a matcher for `query`.
    pub fn new(query: &'q SsdQuery) -> Self {
        Self {
            query,
            grid: Grid::compile(query),
        }
    }

    /// One matcher per query, in order.
    pub fn all(queries: &'q [SsdQuery]) -> Vec<Self> {
        queries.iter().map(Self::new).collect()
    }

    /// Whether lookups go through the compiled grid (`false`: the
    /// reference linear scan).
    pub fn is_compiled(&self) -> bool {
        self.grid.is_some()
    }

    /// The first stratum of the query that `t` satisfies — always equal
    /// to `query.matching_stratum(t)`.
    #[inline]
    pub fn matching_stratum(&self, t: &Individual) -> Option<StratumId> {
        let Some(grid) = &self.grid else {
            return self.query.matching_stratum(t);
        };
        let cell: usize = grid
            .axes
            .iter()
            .map(|a| a.cell(t.get(a.attr)) * a.stride)
            .sum();
        match grid.cells[cell] {
            NO_STRATUM => None,
            k => Some(k as StratumId),
        }
    }
}

impl Grid {
    fn compile(query: &SsdQuery) -> Option<Grid> {
        let boxes: Vec<Bounds> = query
            .constraints()
            .iter()
            .map(|s| bounds_of(&s.formula))
            .collect::<Option<_>>()?;

        // one axis per attribute some satisfiable box bounds
        let mut axes: Vec<Axis> = Vec::new();
        for &(attr, lo, hi) in boxes.iter().flatten().flatten() {
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

        // per stratum, the inclusive cell range it covers on each axis
        let mut spans: Vec<(StratumId, Vec<(usize, usize)>)> = Vec::new();
        let mut fill = 0usize;
        for (k, bounds) in boxes.iter().enumerate() {
            let Some(bounds) = bounds else { continue };
            let span: Vec<(usize, usize)> = axes
                .iter()
                .map(|a| match bounds.iter().find(|b| b.0 == a.attr) {
                    Some(&(_, lo, hi)) => (a.cell(lo), a.cell(hi)),
                    None => (0, a.cuts.len()),
                })
                .collect();
            fill += span.iter().map(|&(lo, hi)| hi - lo + 1).product::<usize>();
            if fill > MAX_FILL {
                return None;
            }
            spans.push((k, span));
        }

        let mut cells = vec![NO_STRATUM; n_cells];
        for (k, span) in &spans {
            // odometer over the covered cells; earlier strata keep theirs
            let mut at: Vec<usize> = span.iter().map(|&(lo, _)| lo).collect();
            loop {
                let cell: usize = at.iter().zip(&axes).map(|(&i, a)| i * a.stride).sum();
                if cells[cell] == NO_STRATUM {
                    cells[cell] = *k as u32;
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
        Some(Grid { axes, cells })
    }
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
        let m = StratumMatcher::new(q);
        for v in values {
            let t = Individual::new(0, vec![v, -v], 0);
            assert_eq!(
                m.matching_stratum(&t),
                q.matching_stratum(&t),
                "disagreement at x = {v}"
            );
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
        assert!(!StratumMatcher::new(&q).is_compiled());
        agrees(&q, 0..300);
    }

    #[test]
    fn overlap_past_the_fill_budget_falls_back_to_the_scan() {
        // a 201 × 201 grid, then seven strata covering all of it
        let mut formulas: Vec<Formula> = (0..100).map(|k| pinned(0, 2 * k)).collect();
        formulas.extend((0..100).map(|k| pinned(1, -2 * k)));
        formulas.extend((0..7).map(|_| Formula::tautology()));
        let q = query(formulas);
        assert!(!StratumMatcher::new(&q).is_compiled());
        agrees(&q, -5..205);
    }
}
