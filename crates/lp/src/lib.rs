//! Linear and integer programming for the SIGMOD'14 reproduction.
//!
//! Algorithm CPS (§5.2.3) phrases the optimal assignment of individuals
//! to surveys as an integer program (Figure 3); MR-CPS (§5.2.5.2) relaxes
//! it to a linear program. This crate provides both solvers from scratch:
//! a two-phase dense [simplex](solve_lp) (standing in for Apache Commons
//! Math's `SimplexSolver`) and LP-based [branch and bound](solve_ip).
//!
//! ```
//! use stratmr_lp::{Problem, Relation, solve_lp, solve_ip};
//!
//! // min 4·x1 + 4·x2 + 4·x12
//! // s.t. x1 + x12 = 3,  x2 + x12 = 2,  x1 + x2 + x12 ≤ 4
//! let mut p = Problem::new();
//! let x1 = p.add_var(4.0);
//! let x2 = p.add_var(4.0);
//! let x12 = p.add_var(4.0);
//! p.add_constraint(vec![(x1, 1.0), (x12, 1.0)], Relation::Eq, 3.0);
//! p.add_constraint(vec![(x2, 1.0), (x12, 1.0)], Relation::Eq, 2.0);
//! p.add_constraint(vec![(x1, 1.0), (x2, 1.0), (x12, 1.0)], Relation::Le, 4.0);
//!
//! let (lp, _pivots) = solve_lp(&p, None).unwrap();
//! let (ip, _search) = solve_ip(&p, None).unwrap();
//! assert!((lp.objective - 12.0).abs() < 1e-6);
//! assert!(ip.objective >= lp.objective - 1e-9); // C_LP ≤ C_IP
//! ```

#![warn(missing_docs)]

pub mod branch_bound;
pub mod problem;
pub mod simplex;

pub use branch_bound::{solve_ip, BranchBoundStats};
pub use problem::{Constraint, LpError, Problem, Relation, Solution, VarId};
pub use simplex::{solve_lp, SimplexStats};
