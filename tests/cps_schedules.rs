//! The fused and the paper's MR-CPS schedules are the same algorithm.
//!
//! The fused schedule counts `L(σ)` inside the initial MR-MQE scan and
//! drops the Figure 4 job; both then read every row's selection id in
//! the combined and residual jobs. Over small random populations and
//! overlapping MSSDs — strata the compiled matcher cannot take (∨, ¬,
//! ≠), empty and single-tuple splits, skewed placement, the LP and IP
//! programs, one and four worker threads — both must return the same
//! answer, cost, plan and EXPLAIN.

use proptest::prelude::*;
use stratmr::mapreduce::{Cluster, InputSplit};
use stratmr::population::{AttrDef, AttrId, Dataset, Individual, Placement, Schema};
use stratmr::query::{CostModel, Formula, MssdQuery, SsdQuery, StratumConstraint, SurveySet};
use stratmr::sampling::cps::{try_mr_cps_on_splits, CpsConfig, CpsRun, CpsSchedule, SolverKind};
use stratmr::sampling::to_input_splits;

fn x() -> AttrId {
    AttrId(0)
}

fn y() -> AttrId {
    AttrId(1)
}

/// Individuals with the given `(x, y)` values, both in `0..10`.
fn population(values: &[(i64, i64)]) -> Dataset {
    let schema = Schema::new(vec![
        AttrDef::numeric("x", 0, 9),
        AttrDef::numeric("y", 0, 9),
    ]);
    let tuples = values
        .iter()
        .enumerate()
        .map(|(i, &(vx, vy))| Individual::new(i as u64, vec![vx, vy], 10))
        .collect();
    Dataset::new(schema, tuples)
}

/// Three overlapping surveys: bands on `x` (compiled grid), a `≠` split
/// on `y`, and a disjunction with its negation that leaves no one out.
fn mssd(cut: i64, v: i64, a: i64, b: i64, f: [usize; 3], penalty: bool) -> MssdQuery {
    let bands = SsdQuery::new(vec![
        StratumConstraint::new(Formula::lt(x(), cut), f[0]),
        StratumConstraint::new(Formula::ge(x(), cut), f[1]),
    ]);
    let not_equal = SsdQuery::new(vec![
        StratumConstraint::new(Formula::ne(y(), v), f[2]),
        StratumConstraint::new(Formula::eq(y(), v), f[0]),
    ]);
    let either = Formula::lt(x(), a).or(Formula::gt(y(), b));
    let disjunction = SsdQuery::new(vec![
        StratumConstraint::new(either.clone(), f[1]),
        StratumConstraint::new(either.not(), f[2]),
    ]);
    let penalties: &[(usize, usize)] = if penalty { &[(0, 2)] } else { &[] };
    MssdQuery::new(
        vec![bands, not_equal, disjunction],
        CostModel::paper_style(3, 4.0, penalties, 3.0),
    )
}

fn explained(config: CpsConfig, schedule: CpsSchedule) -> CpsConfig {
    CpsConfig {
        explain: true,
        schedule,
        ..config
    }
}

/// Run both schedules under `config` and require identical results.
fn assert_schedules_agree(
    splits: &[InputSplit<Individual>],
    machines: usize,
    mssd: &MssdQuery,
    config: CpsConfig,
    seed: u64,
) -> (CpsRun, CpsRun) {
    let cluster = Cluster::new(machines);
    let run = |schedule| {
        try_mr_cps_on_splits(&cluster, splits, mssd, explained(config, schedule), seed)
            .expect("a representative answer is always a feasible plan")
    };
    let (fused, paper) = (run(CpsSchedule::Fused), run(CpsSchedule::Paper));
    assert_eq!(fused.answer, paper.answer);
    assert_eq!(fused.cost, paper.cost);
    assert_eq!(fused.solver_objective, paper.solver_objective);
    assert_eq!(fused.residual_selections, paper.residual_selections);
    assert_eq!(fused.variables, paper.variables);
    assert_eq!(fused.constraints, paper.constraints);
    let json = |r: &CpsRun| r.explain.as_ref().map(|e| e.to_json());
    assert_eq!(json(&fused), json(&paper));
    assert_eq!(fused.phase_stats.len() + 1, paper.phase_stats.len());
    (fused, paper)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fused_and_paper_schedules_agree(
        values in prop::collection::vec((0i64..10, 0i64..10), 0..80),
        cut in 1i64..9,
        v in 0i64..10,
        a in 1i64..9,
        b in 0i64..9,
        f0 in 1usize..5,
        f1 in 1usize..5,
        f2 in 1usize..5,
        penalty in any::<bool>(),
        machines in 1usize..4,
        // up to 90 splits: some hold one tuple, some none
        splits_per_machine in 1usize..30,
        sorted in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let placement = if sorted { Placement::SortedBy(x()) } else { Placement::RoundRobin };
        let data = population(&values);
        let splits =
            to_input_splits(&data.distribute(machines, machines * splits_per_machine, placement));
        let mssd = mssd(cut, v, a, b, [f0, f1, f2], penalty);
        // the vendored rayon re-reads RAYON_NUM_THREADS on each call; the
        // other test in this binary is thread-count invariant too
        for threads in ["1", "4"] {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            for config in [CpsConfig::mr_cps(), CpsConfig::exact()] {
                assert_schedules_agree(&splits, machines, &mssd, config, seed);
            }
        }
        std::env::remove_var("RAYON_NUM_THREADS");
    }
}

/// A half-integral LP vertex floors to nothing, so the residual rounds
/// assemble the whole answer — identically under both schedules.
#[test]
fn residual_rounds_agree_across_schedules() {
    let data = population(&[(0, 0), (0, 0)]);
    let splits = to_input_splits(&data.distribute(2, 2, Placement::RoundRobin));
    let q = SsdQuery::new(vec![StratumConstraint::new(Formula::eq(x(), 0), 1)]);
    let costs = CostModel::paper_style(3, 4.0, &[(0, 1), (0, 2), (1, 2)], 2.0)
        .with_override(SurveySet::from_iter([0, 1, 2]), 10.0);
    let mssd = MssdQuery::new(vec![q.clone(), q.clone(), q], costs);
    for solver in [SolverKind::Lp, SolverKind::Ip] {
        let config = CpsConfig {
            solver,
            ..CpsConfig::mr_cps()
        };
        let (fused, _) = assert_schedules_agree(&splits, 2, &mssd, config, 3);
        if solver == SolverKind::Lp {
            assert_eq!(fused.residual_selections, 3);
        }
    }
}
