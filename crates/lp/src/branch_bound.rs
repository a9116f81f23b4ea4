//! Branch-and-bound integer programming on top of the simplex solver.
//!
//! Algorithm CPS (§5.2.3) formulates an integer program; the paper's
//! optimality analysis (§6.2.2) compares the IP optimum `C_IP` with the
//! LP optimum `C_LP` and MR-CPS's answer cost `C_A` (`C_LP ≤ C_IP ≤ C_A`).
//! This module provides the exact IP solve used for that comparison.

use crate::problem::{LpError, Problem, Relation, Solution};
use crate::simplex::solve_lp;
use stratmr_telemetry::Registry;

/// How close to an integer a relaxation value must be to count as
/// integral.
const INT_TOL: f64 = 1e-6;

/// Node budget; beyond this the search aborts with
/// [`LpError::IterationLimit`]. CPS problems are small (the paper solves
/// them exactly only for the optimality analysis).
const MAX_NODES: usize = 200_000;

/// Search-effort counts of one branch-and-bound solve.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BranchBoundStats {
    /// Nodes popped from the search stack (including pruned ones).
    pub nodes: u64,
    /// LP relaxations solved (root plus one per non-pruned child).
    pub lp_relaxations: u64,
    /// Simplex pivots summed over all relaxations.
    pub pivots: u64,
    /// Objective of the root LP relaxation — the lower bound `C_LP`.
    /// The integral optimum minus this value is the optimality gap the
    /// plan EXPLAIN reports.
    pub root_relaxation: f64,
}

/// Solve `problem` with **all** variables restricted to non-negative
/// integers, by LP-based branch and bound (best-first on the relaxation
/// bound, branching on the most fractional variable), also reporting how
/// much search effort was spent.
///
/// With a `registry`, the solve runs under an `ip.solve` span and
/// records the `ip.solves`, `ip.nodes`, `ip.lp_relaxations`, `ip.pivots`
/// and `ip.errors` counters. The relaxations inside the search are not
/// counted as `lp.*` solves.
pub fn solve_ip(
    problem: &Problem,
    registry: Option<&Registry>,
) -> Result<(Solution, BranchBoundStats), LpError> {
    let _span = registry.map(|r| r.span("ip.solve"));
    let result = branch_and_bound(problem);
    match (registry, &result) {
        (Some(r), Ok((_, stats))) => {
            r.add("ip.solves", 1);
            r.add("ip.nodes", stats.nodes);
            r.add("ip.lp_relaxations", stats.lp_relaxations);
            r.add("ip.pivots", stats.pivots);
        }
        (Some(r), Err(_)) => r.add("ip.errors", 1),
        (None, _) => {}
    }
    result
}

fn branch_and_bound(problem: &Problem) -> Result<(Solution, BranchBoundStats), LpError> {
    // Each node is the base problem plus a set of variable bounds,
    // represented as extra constraints.
    struct Node {
        extra: Vec<(usize, Relation, f64)>, // (var, Le/Ge, bound)
        bound: f64,                         // LP relaxation objective
        relax: Vec<f64>,                    // LP relaxation point
    }

    let mut stats = BranchBoundStats::default();
    let (root_relax, root_pivots) = solve_lp(problem, None)?;
    stats.lp_relaxations = 1;
    stats.pivots = root_pivots.pivots();
    stats.root_relaxation = root_relax.objective;
    let mut incumbent: Option<Solution> = None;
    let mut stack = vec![Node {
        extra: Vec::new(),
        bound: root_relax.objective,
        relax: root_relax.values,
    }];
    let mut nodes = 0usize;

    while let Some(node) = stack.pop() {
        nodes += 1;
        stats.nodes += 1;
        if nodes > MAX_NODES {
            return Err(LpError::IterationLimit);
        }
        // prune by bound
        if let Some(best) = &incumbent {
            if node.bound >= best.objective - 1e-9 {
                continue;
            }
        }
        // find most fractional variable
        let frac_var = node
            .relax
            .iter()
            .enumerate()
            .map(|(i, &v)| (i, (v - v.round()).abs()))
            .filter(|&(_, f)| f > INT_TOL)
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap());

        match frac_var {
            None => {
                // integral: candidate incumbent
                let values: Vec<f64> = node.relax.iter().map(|&v| v.round()).collect();
                let objective = problem.objective_value(&values);
                let better = incumbent
                    .as_ref()
                    .map_or(true, |best| objective < best.objective - 1e-9);
                if better {
                    incumbent = Some(Solution { objective, values });
                }
            }
            Some((var, _)) => {
                let v = node.relax[var];
                for (rel, bound) in [(Relation::Le, v.floor()), (Relation::Ge, v.floor() + 1.0)] {
                    let mut extra = node.extra.clone();
                    extra.push((var, rel, bound));
                    let mut sub = problem.clone();
                    for &(xv, xrel, xb) in &extra {
                        sub.add_constraint(vec![(xv, 1.0)], xrel, xb);
                    }
                    stats.lp_relaxations += 1;
                    match solve_lp(&sub, None) {
                        Ok((relax, pivots)) => {
                            stats.pivots += pivots.pivots();
                            let prune = incumbent
                                .as_ref()
                                .is_some_and(|best| relax.objective >= best.objective - 1e-9);
                            if !prune {
                                stack.push(Node {
                                    extra,
                                    bound: relax.objective,
                                    relax: relax.values,
                                });
                            }
                        }
                        Err(LpError::Infeasible) => {}
                        Err(e) => return Err(e),
                    }
                }
                // best-first-ish: explore the tighter bound last pushed?
                // keep DFS order but sort the top two by bound so the more
                // promising child is popped first.
                let len = stack.len();
                if len >= 2 {
                    let (a, b) = (len - 2, len - 1);
                    if stack[a].bound < stack[b].bound {
                        stack.swap(a, b);
                    }
                }
            }
        }
    }

    incumbent.map(|s| (s, stats)).ok_or(LpError::Infeasible)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Problem;
    use crate::simplex::solve_lp;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn already_integral_lp() {
        let mut p = Problem::new();
        let x = p.add_var(1.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Ge, 3.0);
        let s = solve_ip(&p, None).unwrap().0;
        assert_close(s.values[x], 3.0);
    }

    #[test]
    fn fractional_relaxation_gets_rounded_up_correctly() {
        // min x + y s.t. 2x + 2y >= 3 → LP: 1.5 total, IP: x+y = 2
        let mut p = Problem::new();
        let x = p.add_var(1.0);
        let y = p.add_var(1.0);
        p.add_constraint(vec![(x, 2.0), (y, 2.0)], Relation::Ge, 3.0);
        let lp = solve_lp(&p, None).unwrap().0;
        assert_close(lp.objective, 1.5);
        let ip = solve_ip(&p, None).unwrap().0;
        assert_close(ip.objective, 2.0);
        // IP solution must be integral and feasible
        assert!(ip.values.iter().all(|v| (v - v.round()).abs() < 1e-9));
        assert!(p.is_feasible(&ip.values, 1e-6));
    }

    #[test]
    fn knapsack_style_ip() {
        // max 5a + 4b (min negated) s.t. 6a + 5b <= 10, a,b integer
        // LP: a = 10/6 ≈ 1.67, obj ≈ 8.33; IP best: a=1, b=0 → 5?
        // check: a=0,b=2 → 8. a=1,b=0 → 5.  best integer = 8.
        let mut p = Problem::new();
        let a = p.add_var(-5.0);
        let b = p.add_var(-4.0);
        p.add_constraint(vec![(a, 6.0), (b, 5.0)], Relation::Le, 10.0);
        let ip = solve_ip(&p, None).unwrap().0;
        assert_close(ip.objective, -8.0);
        assert_close(ip.values[a], 0.0);
        assert_close(ip.values[b], 2.0);
    }

    #[test]
    fn ip_never_beats_lp_bound() {
        let mut p = Problem::new();
        let x = p.add_var(3.0);
        let y = p.add_var(2.0);
        let z = p.add_var(4.0);
        p.add_constraint(vec![(x, 2.0), (y, 1.0), (z, 3.0)], Relation::Ge, 7.0);
        p.add_constraint(vec![(x, 1.0), (y, 3.0)], Relation::Ge, 5.0);
        let lp = solve_lp(&p, None).unwrap().0;
        let ip = solve_ip(&p, None).unwrap().0;
        assert!(ip.objective >= lp.objective - 1e-9);
        assert!(p.is_feasible(&ip.values, 1e-6));
    }

    #[test]
    fn infeasible_ip_reported() {
        // 0 <= x <= 0.5 and x >= 0.2 has LP solutions but no integer ones
        // other than... x = 0 is infeasible (x >= 0.2), x in [0.2, 0.5]
        // contains no integer.
        let mut p = Problem::new();
        let x = p.add_var(1.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Le, 0.5);
        p.add_constraint(vec![(x, 1.0)], Relation::Ge, 0.2);
        assert_eq!(solve_ip(&p, None).unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn vertex_cover_reduction_instance() {
        // The paper's NP-hardness reduction (§5.2): a triangle graph needs
        // a vertex cover of size 2. One variable per vertex (cost 1),
        // one constraint per edge: v_i + v_j >= 1.
        let mut p = Problem::new();
        let v: Vec<_> = (0..3).map(|_| p.add_var(1.0)).collect();
        for (i, j) in [(0, 1), (1, 2), (0, 2)] {
            p.add_constraint(vec![(v[i], 1.0), (v[j], 1.0)], Relation::Ge, 1.0);
        }
        // LP optimum is 1.5 (all halves); IP optimum is 2.
        let lp = solve_lp(&p, None).unwrap().0;
        assert_close(lp.objective, 1.5);
        let (s, stats) = solve_ip(&p, None).unwrap();
        assert_close(s.objective, 2.0);
        assert!(stats.nodes >= 2, "fractional root must branch: {stats:?}");
        assert!(stats.lp_relaxations > stats.nodes / 2);
        assert!(stats.pivots > 0);
        // the root relaxation is the fractional vertex-cover bound 1.5,
        // strictly below the integral optimum — a positive root gap
        assert_close(stats.root_relaxation, 1.5);
        assert!(stats.root_relaxation <= s.objective + 1e-9);
    }

    #[test]
    fn traced_solve_records_counters_and_span() {
        use stratmr_telemetry::Registry;
        let registry = Registry::new();
        let mut p = Problem::new();
        let x = p.add_var(1.0);
        let y = p.add_var(1.0);
        p.add_constraint(vec![(x, 2.0), (y, 2.0)], Relation::Ge, 3.0);
        let s = solve_ip(&p, Some(&registry)).unwrap().0;
        assert_close(s.objective, 2.0);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("ip.solves"), 1);
        assert_eq!(snap.counter("lp.solves"), 0, "relaxations are uncounted");
        assert!(snap.counter("ip.nodes") >= 1);
        assert!(snap.counter("ip.lp_relaxations") >= 1);
        assert_eq!(snap.span_calls("ip.solve"), 1);
    }

    #[test]
    fn figure3_block_with_penalty() {
        // Sharing penalized: X{1}, X{2} cost 4; X{1,2} costs 14 (4 + 10
        // penalty). F1 = 2, F2 = 2, L = 4 → better not to share:
        // X{1} = 2, X{2} = 2, cost 16 (sharing would cost 14 + ... more).
        let mut p = Problem::new();
        let x1 = p.add_var(4.0);
        let x2 = p.add_var(4.0);
        let x12 = p.add_var(14.0);
        p.add_constraint(vec![(x1, 1.0), (x12, 1.0)], Relation::Eq, 2.0);
        p.add_constraint(vec![(x2, 1.0), (x12, 1.0)], Relation::Eq, 2.0);
        p.add_constraint(vec![(x1, 1.0), (x2, 1.0), (x12, 1.0)], Relation::Le, 4.0);
        let ip = solve_ip(&p, None).unwrap().0;
        assert_close(ip.objective, 16.0);
        assert_close(ip.values[x12], 0.0);
    }
}
