//! The joint σ grid and the per-survey fallback give the same answers.
//!
//! Takes perfbench's `mqe`/`cps` query shape (paper group *Medium* over
//! a DBLP population), then rewrites one stratum as an equivalent
//! disjunction, which no grid can take, so every survey is looked up on
//! its own. MR-MQE and `CpsConfig::mr_cps()` must return identical
//! answers and job statistics for the same seed either way.

use stratmr::mapreduce::Cluster;
use stratmr::population::dblp::{DblpConfig, DblpGenerator};
use stratmr::population::Placement;
use stratmr::query::{
    Formula, GroupSpec, MssdQuery, QueryGenerator, SelectionMatcher, SsdQuery, StratumConstraint,
};
use stratmr::sampling::{to_input_splits, try_mr_cps_on_splits, try_mr_mqe_on_splits, CpsConfig};

#[test]
fn joint_grid_and_fallback_answer_alike() {
    let data = DblpGenerator::new(DblpConfig::default()).generate(6_000, 901);
    let splits = to_input_splits(&data.distribute(4, 12, Placement::RoundRobin));
    let qgen = QueryGenerator::new(DblpGenerator::schema());
    let fast = qgen.generate_paper_group_on(&GroupSpec::MEDIUM, 120, data.tuples(), 17);

    // stratum 0 of survey 0 as `f ∨ false`: the same tuples, not a box
    let mut queries: Vec<SsdQuery> = fast.queries().to_vec();
    let strata: Vec<StratumConstraint> = queries[0]
        .constraints()
        .iter()
        .enumerate()
        .map(|(k, s)| {
            let f = if k == 0 {
                Formula::Or(vec![s.formula.clone(), Formula::Const(false)])
            } else {
                s.formula.clone()
            };
            StratumConstraint::new(f, s.frequency)
        })
        .collect();
    queries[0] = SsdQuery::new(strata);
    let slow = MssdQuery::new(queries, fast.costs().clone());
    assert!(SelectionMatcher::new(fast.queries()).is_joint());
    assert!(!SelectionMatcher::new(slow.queries()).is_joint());

    let cluster = Cluster::new(4);
    for seed in [3, 4] {
        let a = try_mr_mqe_on_splits(&cluster, &splits, fast.queries(), None, seed).unwrap();
        let b = try_mr_mqe_on_splits(&cluster, &splits, slow.queries(), None, seed).unwrap();
        assert!(!a.answer.answer(0).is_empty());
        assert_eq!(a.answer, b.answer, "MR-MQE seed {seed}");
        assert_eq!(format!("{:?}", a.stats.sim), format!("{:?}", b.stats.sim));
        assert_eq!(
            (
                a.stats.map_output_records,
                a.stats.combine_output_pairs,
                a.stats.shuffle_bytes
            ),
            (
                b.stats.map_output_records,
                b.stats.combine_output_pairs,
                b.stats.shuffle_bytes
            )
        );

        let a = try_mr_cps_on_splits(&cluster, &splits, &fast, CpsConfig::mr_cps(), seed).unwrap();
        let b = try_mr_cps_on_splits(&cluster, &splits, &slow, CpsConfig::mr_cps(), seed).unwrap();
        assert_eq!(a.answer, b.answer, "MR-CPS seed {seed}");
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        assert_eq!(a.residual_selections, b.residual_selections);
        assert_eq!(a.variables, b.variables);
        assert_eq!(a.phase_stats.len(), b.phase_stats.len());
        for ((na, sa), (nb, sb)) in a.phase_stats.iter().zip(&b.phase_stats) {
            assert_eq!(na, nb);
            assert_eq!(format!("{:?}", sa.sim), format!("{:?}", sb.sim), "{na}");
            assert_eq!(
                (sa.map_output_records, sa.side_bytes, sa.shuffle_bytes),
                (sb.map_output_records, sb.side_bytes, sb.shuffle_bytes),
                "{na}"
            );
        }
    }
}
