//! Two-phase dense simplex.
//!
//! The paper's MR-CPS uses the Apache Commons Math `SimplexSolver`
//! (§6.1.3); this module is its Rust stand-in (DESIGN.md, substitution 3).
//! It implements the textbook two-phase primal simplex on a dense tableau
//! with Bland's anti-cycling rule — adequate for the paper's problem
//! sizes, where the LP "is exponential only in the number of SSDs" and is
//! solved in seconds.

use crate::problem::{LpError, Problem, Relation, Solution};
use stratmr_telemetry::Registry;

const EPS: f64 = 1e-9;

/// Pivot budget; generous relative to the paper's problem sizes.
const MAX_PIVOTS: usize = 200_000;

/// Pivot counts of one simplex solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimplexStats {
    /// Pivots spent finding a basic feasible solution (phase 1,
    /// including the drive-out of leftover artificials).
    pub phase1_pivots: u64,
    /// Pivots spent optimizing the real objective (phase 2).
    pub phase2_pivots: u64,
}

impl SimplexStats {
    /// Total pivots across both phases.
    pub fn pivots(&self) -> u64 {
        self.phase1_pivots + self.phase2_pivots
    }
}

/// Solve the linear relaxation of `problem` (all variables continuous,
/// non-negative), also reporting how many pivots each phase performed.
/// Returns the optimal solution, or why none exists.
///
/// With a `registry`, the solve runs under an `lp.solve` span (nested
/// under whatever span the caller holds open) and records the
/// `lp.solves`, `lp.pivots`, `lp.pivots.phase1`, `lp.pivots.phase2` and
/// `lp.errors` counters.
pub fn solve_lp(
    problem: &Problem,
    registry: Option<&Registry>,
) -> Result<(Solution, SimplexStats), LpError> {
    let _span = registry.map(|r| r.span("lp.solve"));
    let result = Tableau::build(problem).and_then(|t| t.solve(problem));
    match (registry, &result) {
        (Some(r), Ok((_, stats))) => {
            r.add("lp.solves", 1);
            r.add("lp.pivots", stats.pivots());
            r.add("lp.pivots.phase1", stats.phase1_pivots);
            r.add("lp.pivots.phase2", stats.phase2_pivots);
        }
        (Some(r), Err(_)) => r.add("lp.errors", 1),
        (None, _) => {}
    }
    result
}

/// Dense simplex tableau.
///
/// Layout: `m` constraint rows followed by one objective row; columns are
/// the `n` structural variables, then slack/surplus columns, then
/// artificial columns, then the RHS.
struct Tableau {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
    /// Basic variable (column index) of each constraint row.
    basis: Vec<usize>,
    /// First artificial column.
    art_start: usize,
}

impl Tableau {
    fn build(problem: &Problem) -> Result<Self, LpError> {
        let m = problem.n_constraints();
        let n = problem.n_vars();

        // count slack/surplus and artificial columns
        let mut n_slack = 0;
        let mut n_art = 0;
        for c in problem.constraints() {
            // normalize rhs >= 0 first (flips the relation)
            let rel = effective_relation(c.relation, c.rhs);
            match rel {
                Relation::Le => n_slack += 1,
                Relation::Ge => {
                    n_slack += 1;
                    n_art += 1;
                }
                Relation::Eq => n_art += 1,
            }
        }

        let cols = n + n_slack + n_art + 1;
        let rows = m + 1;
        let mut t = Tableau {
            rows,
            cols,
            data: vec![0.0; rows * cols],
            basis: vec![usize::MAX; m],
            art_start: n + n_slack,
        };

        let mut slack_col = n;
        let mut art_col = t.art_start;
        for (i, c) in problem.constraints().iter().enumerate() {
            let flip = c.rhs < 0.0;
            let sign = if flip { -1.0 } else { 1.0 };
            for &(v, a) in &c.coeffs {
                *t.at_mut(i, v) += sign * a;
            }
            *t.at_mut(i, cols - 1) = sign * c.rhs;
            match effective_relation(c.relation, c.rhs) {
                Relation::Le => {
                    *t.at_mut(i, slack_col) = 1.0;
                    t.basis[i] = slack_col;
                    slack_col += 1;
                }
                Relation::Ge => {
                    *t.at_mut(i, slack_col) = -1.0; // surplus
                    slack_col += 1;
                    *t.at_mut(i, art_col) = 1.0;
                    t.basis[i] = art_col;
                    art_col += 1;
                }
                Relation::Eq => {
                    *t.at_mut(i, art_col) = 1.0;
                    t.basis[i] = art_col;
                    art_col += 1;
                }
            }
        }
        Ok(t)
    }

    #[inline]
    fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    #[inline]
    fn at_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }

    fn solve(mut self, problem: &Problem) -> Result<(Solution, SimplexStats), LpError> {
        let m = self.rows - 1;
        let has_artificials = self.art_start < self.cols - 1;
        let mut stats = SimplexStats::default();

        if has_artificials {
            // Phase 1: minimize the sum of artificials.
            self.set_phase1_objective();
            stats.phase1_pivots += self.pivot_until_optimal(self.cols - 1)?;
            let phase1_obj = -self.at(m, self.cols - 1);
            if phase1_obj > 1e-7 {
                return Err(LpError::Infeasible);
            }
            stats.phase1_pivots += self.drive_out_artificials();
        }

        // Phase 2: the original objective, restricted to non-artificials.
        self.set_phase2_objective(problem);
        stats.phase2_pivots += self.pivot_until_optimal(self.art_start)?;

        // extract solution
        let mut values = vec![0.0; problem.n_vars()];
        for (row, &b) in self.basis.iter().enumerate() {
            if b < problem.n_vars() {
                values[b] = self.at(row, self.cols - 1).max(0.0);
            }
        }
        Ok((
            Solution {
                objective: problem.objective_value(&values),
                values,
            },
            stats,
        ))
    }

    /// Install the phase-1 objective row: minimize Σ artificials, priced
    /// out against the initial basis.
    fn set_phase1_objective(&mut self) {
        let m = self.rows - 1;
        for c in 0..self.cols {
            *self.at_mut(m, c) = 0.0;
        }
        for c in self.art_start..self.cols - 1 {
            *self.at_mut(m, c) = 1.0;
        }
        // price out: subtract rows whose basic variable is artificial
        for row in 0..m {
            if self.basis[row] >= self.art_start {
                for c in 0..self.cols {
                    let v = self.at(row, c);
                    *self.at_mut(m, c) -= v;
                }
            }
        }
    }

    /// Install the phase-2 objective row, priced out against the current
    /// basis.
    fn set_phase2_objective(&mut self, problem: &Problem) {
        let m = self.rows - 1;
        for c in 0..self.cols {
            *self.at_mut(m, c) = 0.0;
        }
        for (v, &cost) in problem.objective().iter().enumerate() {
            *self.at_mut(m, v) = cost;
        }
        for row in 0..m {
            let b = self.basis[row];
            let cb = self.at(m, b);
            if cb.abs() > EPS {
                for c in 0..self.cols {
                    let v = self.at(row, c);
                    *self.at_mut(m, c) -= cb * v;
                }
            }
        }
    }

    /// After phase 1, pivot any artificial still in the basis (at zero
    /// level) out, or mark its row as redundant. Returns the number of
    /// pivots performed.
    fn drive_out_artificials(&mut self) -> u64 {
        let m = self.rows - 1;
        let mut pivots = 0;
        for row in 0..m {
            if self.basis[row] < self.art_start {
                continue;
            }
            // find a non-artificial column with a nonzero entry to pivot in
            let col = (0..self.art_start).find(|&c| self.at(row, c).abs() > 1e-7);
            if let Some(col) = col {
                self.pivot(row, col);
                pivots += 1;
            }
            // otherwise the row is all-zero over structural variables
            // (redundant constraint); the artificial stays basic at 0,
            // which is harmless because artificials never re-enter.
        }
        pivots
    }

    /// Bland's-rule pivoting until no reduced cost is negative.
    /// `enter_limit` bounds the columns allowed to enter (exclude
    /// artificials in phase 2, and the RHS always). Returns the number
    /// of pivots performed.
    fn pivot_until_optimal(&mut self, enter_limit: usize) -> Result<u64, LpError> {
        let m = self.rows - 1;
        for done in 0..MAX_PIVOTS {
            // Bland: entering = lowest-index column with negative reduced cost
            let entering = (0..enter_limit).find(|&c| self.at(m, c) < -EPS);
            let Some(entering) = entering else {
                return Ok(done as u64);
            };
            // ratio test; Bland tiebreak on lowest basis index
            let mut leave: Option<(usize, f64)> = None;
            for row in 0..m {
                let a = self.at(row, entering);
                if a > EPS {
                    let ratio = self.at(row, self.cols - 1) / a;
                    match leave {
                        None => leave = Some((row, ratio)),
                        Some((lrow, lratio)) => {
                            if ratio < lratio - EPS
                                || ((ratio - lratio).abs() <= EPS
                                    && self.basis[row] < self.basis[lrow])
                            {
                                leave = Some((row, ratio));
                            }
                        }
                    }
                }
            }
            let Some((leaving_row, _)) = leave else {
                return Err(LpError::Unbounded);
            };
            self.pivot(leaving_row, entering);
        }
        Err(LpError::IterationLimit)
    }

    /// Gauss-Jordan pivot on `(row, col)`.
    fn pivot(&mut self, row: usize, col: usize) {
        let pivot = self.at(row, col);
        debug_assert!(pivot.abs() > 1e-12, "pivot on ~zero element");
        for c in 0..self.cols {
            *self.at_mut(row, c) /= pivot;
        }
        for r in 0..self.rows {
            if r == row {
                continue;
            }
            let factor = self.at(r, col);
            if factor.abs() > EPS {
                for c in 0..self.cols {
                    let v = self.at(row, c);
                    *self.at_mut(r, c) -= factor * v;
                }
            }
        }
        self.basis[row] = col;
    }
}

/// The relation after normalizing the RHS to be non-negative: a negative
/// RHS flips `≤` to `≥` and vice versa.
fn effective_relation(rel: Relation, rhs: f64) -> Relation {
    if rhs >= 0.0 {
        rel
    } else {
        match rel {
            Relation::Le => Relation::Ge,
            Relation::Ge => Relation::Le,
            Relation::Eq => Relation::Eq,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Problem;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn simple_minimization() {
        // min x + 2y  s.t. x + y >= 3, x <= 2  → x=2, y=1, obj=4
        let mut p = Problem::new();
        let x = p.add_var(1.0);
        let y = p.add_var(2.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 3.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Le, 2.0);
        let (s, stats) = solve_lp(&p, None).unwrap();
        assert_close(s.objective, 4.0);
        assert_close(s.values[x], 2.0);
        assert_close(s.values[y], 1.0);
        assert!(stats.pivots() > 0, "a ≥-constraint forces phase-1 pivots");
        assert_eq!(stats.pivots(), stats.phase1_pivots + stats.phase2_pivots);
    }

    #[test]
    fn maximization_via_negated_costs() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18
        // classic Dantzig example: x=2, y=6, max=36
        let mut p = Problem::new();
        let x = p.add_var(-3.0);
        let y = p.add_var(-5.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Le, 4.0);
        p.add_constraint(vec![(y, 2.0)], Relation::Le, 12.0);
        p.add_constraint(vec![(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        let s = solve_lp(&p, None).unwrap().0;
        assert_close(s.objective, -36.0);
        assert_close(s.values[x], 2.0);
        assert_close(s.values[y], 6.0);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y = 4, x - y = 1 → x=2, y=1, obj=3
        let mut p = Problem::new();
        let x = p.add_var(1.0);
        let y = p.add_var(1.0);
        p.add_constraint(vec![(x, 1.0), (y, 2.0)], Relation::Eq, 4.0);
        p.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::Eq, 1.0);
        let s = solve_lp(&p, None).unwrap().0;
        assert_close(s.values[x], 2.0);
        assert_close(s.values[y], 1.0);
        assert_close(s.objective, 3.0);
    }

    #[test]
    fn infeasible_detected() {
        // x >= 5 and x <= 2
        let mut p = Problem::new();
        let x = p.add_var(1.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Ge, 5.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Le, 2.0);
        assert_eq!(solve_lp(&p, None).unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        // min -x s.t. x >= 1
        let mut p = Problem::new();
        let x = p.add_var(-1.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Ge, 1.0);
        assert_eq!(solve_lp(&p, None).unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn negative_rhs_normalized() {
        // min x s.t. -x <= -3  (i.e. x >= 3)
        let mut p = Problem::new();
        let x = p.add_var(1.0);
        p.add_constraint(vec![(x, -1.0)], Relation::Le, -3.0);
        let s = solve_lp(&p, None).unwrap().0;
        assert_close(s.values[x], 3.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // multiple redundant constraints through one vertex
        let mut p = Problem::new();
        let x = p.add_var(1.0);
        let y = p.add_var(1.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 2.0);
        p.add_constraint(vec![(x, 2.0), (y, 2.0)], Relation::Ge, 4.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 2.0);
        let s = solve_lp(&p, None).unwrap().0;
        assert_close(s.objective, 2.0);
    }

    #[test]
    fn redundant_equalities_ok() {
        // x + y = 2 stated twice
        let mut p = Problem::new();
        let x = p.add_var(1.0);
        let y = p.add_var(3.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 2.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 2.0);
        let s = solve_lp(&p, None).unwrap().0;
        assert_close(s.values[x], 2.0);
        assert_close(s.values[y], 0.0);
    }

    #[test]
    fn zero_variable_problem() {
        let p = Problem::new();
        let s = solve_lp(&p, None).unwrap().0;
        assert_eq!(s.values.len(), 0);
        assert_close(s.objective, 0.0);
    }

    #[test]
    fn figure3_shaped_block() {
        // A per-σ CPS block: 2 surveys, F1 = 3, F2 = 2, limit L = 4.
        // Variables X{1}, X{2}, X{1,2} with costs 4, 4, 4 (sharing free).
        // Equalities: X{1} + X{12} = 3, X{2} + X{12} = 2.
        // Upper bound: X{1} + X{2} + X{12} <= 4.
        // Optimum: X{12} = 2, X{1} = 1, X{2} = 0 → cost 12.
        let mut p = Problem::new();
        let x1 = p.add_var(4.0);
        let x2 = p.add_var(4.0);
        let x12 = p.add_var(4.0);
        p.add_constraint(vec![(x1, 1.0), (x12, 1.0)], Relation::Eq, 3.0);
        p.add_constraint(vec![(x2, 1.0), (x12, 1.0)], Relation::Eq, 2.0);
        p.add_constraint(vec![(x1, 1.0), (x2, 1.0), (x12, 1.0)], Relation::Le, 4.0);
        let s = solve_lp(&p, None).unwrap().0;
        assert_close(s.objective, 12.0);
        assert_close(s.values[x12], 2.0);
        assert_close(s.values[x1], 1.0);
        assert_close(s.values[x2], 0.0);
    }

    #[test]
    fn traced_solve_records_counters_and_span() {
        use stratmr_telemetry::Registry;
        let registry = Registry::new();
        let mut p = Problem::new();
        let x = p.add_var(1.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Ge, 5.0);
        let s = solve_lp(&p, Some(&registry)).unwrap().0;
        assert_close(s.values[x], 5.0);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("lp.solves"), 1);
        assert_eq!(
            snap.counter("lp.pivots"),
            snap.counter("lp.pivots.phase1") + snap.counter("lp.pivots.phase2")
        );
        assert_eq!(snap.span_calls("lp.solve"), 1);

        // infeasible problems land in lp.errors, not lp.solves
        p.add_constraint(vec![(x, 1.0)], Relation::Le, 2.0);
        assert_eq!(
            solve_lp(&p, Some(&registry)).unwrap_err(),
            LpError::Infeasible
        );
        assert_eq!(registry.snapshot().counter("lp.errors"), 1);
        assert_eq!(registry.snapshot().counter("lp.solves"), 1);
    }

    #[test]
    fn solution_is_always_feasible() {
        let mut p = Problem::new();
        let x = p.add_var(2.0);
        let y = p.add_var(1.0);
        let z = p.add_var(3.0);
        p.add_constraint(vec![(x, 1.0), (y, 2.0), (z, 1.0)], Relation::Ge, 10.0);
        p.add_constraint(vec![(x, 1.0), (z, -1.0)], Relation::Le, 5.0);
        p.add_constraint(vec![(y, 1.0)], Relation::Le, 3.0);
        let s = solve_lp(&p, None).unwrap().0;
        assert!(p.is_feasible(&s.values, 1e-6));
    }
}
