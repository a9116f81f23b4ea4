//! The samplers find a tuple by its split's position in the input, not
//! by the split's id.
//!
//! Map tasks ship each tuple as its split's position and its index
//! there; reduce and MR-CPS's deal read the tuple back from the same
//! slice. A split's `id` names its task (and seeds it) but need not equal
//! its position. With permuted ids, every sampler must still return
//! tuples that match their stratum's formula, no individual twice in
//! one stratum.

use std::collections::HashSet;
use stratmr::mapreduce::{Cluster, InputSplit};
use stratmr::population::{AttrDef, AttrId, Dataset, Individual, Placement, Schema};
use stratmr::query::{
    CostModel, Formula, MssdAnswer, MssdQuery, SsdAnswer, SsdQuery, StratumConstraint,
};
use stratmr::sampling::cps::{try_mr_cps_on_splits, CpsConfig};
use stratmr::sampling::{to_input_splits, try_mr_mqe_on_splits, try_mr_sqe_on_splits};

/// 400 individuals on four splits whose ids are not their positions.
fn permuted_splits() -> Vec<InputSplit<Individual>> {
    let schema = Schema::new(vec![AttrDef::numeric("x", 0, 99)]);
    let tuples = (0..400u64)
        .map(|i| Individual::new(i, vec![(i * 37 % 100) as i64], 10))
        .collect();
    let data = Dataset::new(schema, tuples).distribute(2, 4, Placement::RoundRobin);
    let mut splits = to_input_splits(&data);
    for (split, id) in splits.iter_mut().zip([5, 3, 9, 0]) {
        split.id = id;
    }
    splits
}

/// Three overlapping surveys over `x`; every pair of surveys sharing an
/// individual is penalized, so the LP's half-integral plans leave
/// deficits to the residual job.
fn mssd() -> MssdQuery {
    let survey = |strata: &[(i64, i64, usize)]| {
        let x = AttrId(0);
        let stratum = |&(lo, hi, f)| StratumConstraint::new(Formula::between(x, lo, hi), f);
        SsdQuery::new(strata.iter().map(stratum).collect())
    };
    MssdQuery::new(
        vec![
            survey(&[(0, 49, 7), (50, 99, 9)]),
            survey(&[(0, 19, 5), (20, 79, 11), (80, 99, 3)]),
            survey(&[(0, 34, 6), (35, 64, 4), (65, 99, 8)]),
        ],
        CostModel::paper_style(3, 4.0, &[(0, 1), (0, 2), (1, 2)], 3.0),
    )
}

/// The answer satisfies the query and no stratum holds anyone twice.
fn assert_valid(answer: &SsdAnswer, query: &SsdQuery, what: &str) {
    assert!(answer.satisfies(query), "{what}: unsatisfied");
    for k in 0..query.len() {
        let stratum = answer.stratum(k);
        let ids: HashSet<u64> = stratum.iter().map(|t| t.id).collect();
        assert_eq!(ids.len(), stratum.len(), "{what}: stratum {k} repeats");
    }
}

#[test]
fn every_sampler_reads_tuples_by_split_position() {
    let (splits, mssd, cluster) = (permuted_splits(), mssd(), Cluster::new(2));
    let queries = mssd.queries();
    let mut residuals = 0;
    for seed in 0..8 {
        let sqe = queries.iter().map(|q| {
            let run = try_mr_sqe_on_splits(&cluster, &splits, q, seed).unwrap();
            run.answer
        });
        let mqe = try_mr_mqe_on_splits(&cluster, &splits, queries, None, seed).unwrap();
        let mut answers = vec![("MR-SQE", MssdAnswer::new(sqe.collect()))];
        answers.push(("MR-MQE", mqe.answer));
        for (name, config) in [
            ("mr_cps", CpsConfig::mr_cps()),
            ("paper", CpsConfig::paper()),
        ] {
            let cps = try_mr_cps_on_splits(&cluster, &splits, &mssd, config, seed).unwrap();
            residuals += cps.residual_selections;
            answers.push((name, cps.answer));
        }
        for (name, answer) in &answers {
            for (i, q) in queries.iter().enumerate() {
                assert_valid(answer.answer(i), q, &format!("{name} q{i} seed {seed}"));
            }
        }
    }
    assert!(residuals > 0, "the residual job must run");
}
