//! Integration tests for the extension modules: percentage designs,
//! streaming samplers, allocation-driven designs and estimators working
//! together over the full MapReduce stack.

use stratmr::mapreduce::Cluster;
use stratmr::population::dblp::{DblpConfig, DblpGenerator};
use stratmr::population::Placement;
use stratmr::query::{design_ssd, Allocation, Formula};
use stratmr::sampling::estimate::stratified_mean;
use stratmr::sampling::percent::{mr_sqe_percent, PercentSsdQuery, PercentStratum};
use stratmr::sampling::sqe::try_mr_sqe_on_splits;
use stratmr::sampling::stream::{merge_streams, StreamingSampler};
use stratmr::sampling::to_input_splits;

#[test]
fn percentage_design_over_dblp() {
    let data = DblpGenerator::new(DblpConfig::default()).generate(20_000, 1);
    let schema = data.schema().clone();
    let fy = schema.attr_id("fy").unwrap();
    let dist = data.distribute(5, 10, Placement::RoundRobin);
    let splits = to_input_splits(&dist);
    let cluster = Cluster::new(5);

    // 1% of veterans, 0.2% of the rest
    let design = PercentSsdQuery::new(vec![
        PercentStratum {
            formula: Formula::lt(fy, 1990),
            percent: 1.0,
        },
        PercentStratum {
            formula: Formula::ge(fy, 1990),
            percent: 0.2,
        },
    ]);
    let result = mr_sqe_percent(&cluster, &splits, &design, 5).unwrap();
    let veterans = data.tuples().iter().filter(|t| t.get(fy) < 1990).count();
    let rest = data.len() - veterans;
    let expect0 = ((veterans as f64 * 0.01).round() as usize).max(1);
    let expect1 = ((rest as f64 * 0.002).round() as usize).max(1);
    assert_eq!(result.resolved.stratum(0).frequency, expect0);
    assert_eq!(result.resolved.stratum(1).frequency, expect1);
    assert_eq!(result.run.answer.stratum(0).len(), expect0);
    assert_eq!(result.run.answer.stratum(1).len(), expect1);
}

#[test]
fn streaming_sampler_matches_batch_design() {
    // sample the same design from a stream and from MapReduce; both
    // must satisfy it
    let data = DblpGenerator::new(DblpConfig::default()).generate(8_000, 2);
    let schema = data.schema().clone();
    let nop = schema.attr_id("nop").unwrap();
    let query = design_ssd(
        vec![Formula::le(nop, 5), Formula::gt(nop, 5)],
        60,
        Allocation::Proportional,
        data.tuples(),
    );

    // streaming over the whole population
    let mut sampler = StreamingSampler::new(query.clone(), 7);
    for t in data.tuples() {
        sampler.observe(t);
    }
    let stream_answer = sampler.finish();
    assert!(stream_answer.satisfies(&query));

    // two disjoint streams merged
    let (first, second) = data.tuples().split_at(3_000);
    let mut a = StreamingSampler::new(query.clone(), 8);
    first.iter().for_each(|t| a.observe(t));
    let mut b = StreamingSampler::new(query.clone(), 9);
    second.iter().for_each(|t| b.observe(t));
    let merged = merge_streams(&query, vec![a.into_partials(), b.into_partials()], 10);
    assert!(merged.satisfies(&query));

    // MapReduce over the same population
    let splits = to_input_splits(&data.distribute(4, 8, Placement::RoundRobin));
    let run = try_mr_sqe_on_splits(&Cluster::new(4), &splits, &query, 11).unwrap();
    assert!(run.answer.satisfies(&query));
}

#[test]
fn neyman_design_estimates_better_than_equal_on_skewed_attribute() {
    // nop is extremely heavy-tailed; Neyman allocation on nop-strata
    // should estimate the mean nop with a smaller standard error than
    // equal allocation at the same budget
    let data = DblpGenerator::new(DblpConfig::default()).generate(30_000, 3);
    let schema = data.schema().clone();
    let nop = schema.attr_id("nop").unwrap();
    let strata = vec![
        Formula::le(nop, 10),
        Formula::between(nop, 11, 100),
        Formula::gt(nop, 100),
    ];
    let sizes: Vec<usize> = strata
        .iter()
        .map(|f| data.tuples().iter().filter(|t| f.eval(t)).count())
        .collect();
    let dist = data.distribute(4, 8, Placement::RoundRobin);
    let splits = to_input_splits(&dist);
    let cluster = Cluster::new(4);

    let budget = 300;
    let mut errors = Vec::new();
    for rule in [Allocation::Equal, Allocation::Neyman(nop)] {
        let q = design_ssd(strata.clone(), budget, rule, data.tuples());
        assert_eq!(q.total_frequency(), budget);
        let run = try_mr_sqe_on_splits(&cluster, &splits, &q, 13).unwrap();
        assert!(run.answer.satisfies(&q));
        let est = stratified_mean(&run.answer, &sizes, nop);
        errors.push(est.std_error);
    }
    assert!(
        errors[1] < errors[0],
        "Neyman ({}) should beat equal allocation ({})",
        errors[1],
        errors[0]
    );
}

#[test]
fn estimates_from_mr_sqe_cover_the_truth() {
    let data = DblpGenerator::new(DblpConfig::default()).generate(25_000, 4);
    let schema = data.schema().clone();
    let cc = schema.attr_id("cc").unwrap();
    let truth = data.tuples().iter().map(|t| t.get(cc) as f64).sum::<f64>() / data.len() as f64;
    let strata = vec![Formula::le(cc, 10), Formula::gt(cc, 10)];
    let sizes: Vec<usize> = strata
        .iter()
        .map(|f| data.tuples().iter().filter(|t| f.eval(t)).count())
        .collect();
    let q = design_ssd(strata, 500, Allocation::Proportional, data.tuples());
    let splits = to_input_splits(&data.distribute(5, 10, Placement::RoundRobin));
    let run = try_mr_sqe_on_splits(&Cluster::new(5), &splits, &q, 17).unwrap();
    let est = stratified_mean(&run.answer, &sizes, cc);
    let (lo, hi) = est.interval(4.0);
    assert!(
        lo <= truth && truth <= hi,
        "true mean cc {truth} outside [{lo}, {hi}]"
    );
}
