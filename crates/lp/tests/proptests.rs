//! Property tests for the simplex and branch-and-bound solvers.
//!
//! Random programs are built around a known feasible point so
//! feasibility is guaranteed by construction; the solver's output must
//! then be (a) feasible and (b) at least as good as the known point,
//! and the IP optimum can never beat the LP relaxation.

use proptest::prelude::*;
use stratmr_lp::{solve_ip, solve_lp, LpError, Problem, Relation};

/// Build a problem that the point `x0` satisfies: for random rows `a`,
/// add `a·x ≤ a·x0 + slack` or `a·x ≥ a·x0 − slack`.
fn problem_around(x0: &[f64], rows: &[(Vec<f64>, bool, f64)], costs: &[f64]) -> Problem {
    let mut p = Problem::new();
    for &c in costs {
        p.add_var(c);
    }
    for (coeffs, is_le, slack) in rows {
        let dot: f64 = coeffs.iter().zip(x0).map(|(a, x)| a * x).sum();
        let sparse: Vec<(usize, f64)> = coeffs
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a != 0.0)
            .map(|(i, &a)| (i, a))
            .collect();
        if sparse.is_empty() {
            continue;
        }
        if *is_le {
            p.add_constraint(sparse, Relation::Le, dot + slack);
        } else {
            p.add_constraint(sparse, Relation::Ge, dot - slack);
        }
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The simplex result is feasible and no worse than the seed point.
    #[test]
    fn lp_optimum_dominates_known_feasible_point(
        x0 in prop::collection::vec(0.0f64..10.0, 1..6),
        costs in prop::collection::vec(0.0f64..10.0, 6),
        rows in prop::collection::vec(
            (prop::collection::vec(-3i8..=3, 6), any::<bool>(), 0.0f64..5.0),
            1..8,
        ),
    ) {
        let n = x0.len();
        let costs = &costs[..n];
        let rows: Vec<(Vec<f64>, bool, f64)> = rows
            .into_iter()
            .map(|(coeffs, le, slack)| {
                (coeffs[..n].iter().map(|&c| c as f64).collect(), le, slack)
            })
            .collect();
        let p = problem_around(&x0, &rows, costs);
        // costs are non-negative over x ≥ 0, so the LP is bounded below
        let solution = solve_lp(&p, None).expect("feasible by construction").0;
        prop_assert!(p.is_feasible(&solution.values, 1e-6),
            "infeasible solver output {:?}", solution.values);
        let seed_obj = p.objective_value(&x0);
        prop_assert!(solution.objective <= seed_obj + 1e-6,
            "optimum {} worse than seed point {seed_obj}", solution.objective);
    }

    /// `C_LP ≤ C_IP`, the IP solution is integral and feasible.
    #[test]
    fn ip_respects_relaxation_bound(
        f in prop::collection::vec(0u8..6, 2..4),
        limit_extra in 0u8..4,
        share_cost in 1.0f64..20.0,
    ) {
        // a CPS-shaped block: one variable per non-empty subset of
        // surveys, equality per survey, one upper bound
        let n = f.len();
        let n_subsets = (1usize << n) - 1;
        let mut p = Problem::new();
        let vars: Vec<usize> = (0..n_subsets)
            .map(|tau| {
                let bits = (tau + 1).count_ones();
                // singletons cost 4; sharing costs share_cost
                p.add_var(if bits == 1 { 4.0 } else { share_cost })
            })
            .collect();
        for (i, &fi) in f.iter().enumerate() {
            let coeffs: Vec<(usize, f64)> = vars
                .iter()
                .enumerate()
                .filter(|&(tau, _)| (tau + 1) & (1 << i) != 0)
                .map(|(_, &v)| (v, 1.0))
                .collect();
            p.add_constraint(coeffs, Relation::Eq, fi as f64);
        }
        let max_f = *f.iter().max().unwrap() as f64;
        p.add_constraint(
            vars.iter().map(|&v| (v, 1.0)).collect(),
            Relation::Le,
            max_f + limit_extra as f64 + f.iter().map(|&x| x as f64).sum::<f64>(),
        );

        let lp = solve_lp(&p, None).expect("feasible").0;
        let ip = solve_ip(&p, None).expect("feasible").0;
        prop_assert!(lp.objective <= ip.objective + 1e-6,
            "LP {} > IP {}", lp.objective, ip.objective);
        prop_assert!(p.is_feasible(&ip.values, 1e-6));
        for v in &ip.values {
            prop_assert!((v - v.round()).abs() < 1e-6, "non-integral {v}");
        }
    }

    /// Contradictory bounds are reported as infeasible, never as a
    /// wrong answer.
    #[test]
    fn contradictions_detected(lo in 1.0f64..50.0, gap in 0.1f64..10.0) {
        let mut p = Problem::new();
        let x = p.add_var(1.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Ge, lo + gap);
        p.add_constraint(vec![(x, 1.0)], Relation::Le, lo);
        prop_assert_eq!(solve_lp(&p, None).unwrap_err(), LpError::Infeasible);
        prop_assert_eq!(solve_ip(&p, None).unwrap_err(), LpError::Infeasible);
    }
}
