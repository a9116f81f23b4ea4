//! Integration tests of the sampling audit ledger (the statistical
//! observability layer): Horvitz–Thompson weights must be a pure
//! function of the query and the population — invariant to cluster
//! width and to how the data is placed across splits — and the realized
//! per-stratum sampling fraction must stay within the binomial
//! acceptance bound across many seeds.

use proptest::prelude::*;
use stratmr::mapreduce::{Cluster, Registry};
use stratmr::population::{AttrDef, AttrId, Dataset, Individual, Placement, Schema};
use stratmr::query::{Formula, SsdQuery, StratumConstraint};
use stratmr::sampling::cps::{try_mr_cps_on_splits, CpsConfig};
use stratmr::sampling::sqe::try_mr_sqe_on_splits;
use stratmr::sampling::to_input_splits;
use stratmr::sampling::{QualityReport, BIAS_GATE_Z};

fn schema() -> Schema {
    Schema::new(vec![AttrDef::numeric("x", 0, 99)])
}

fn x() -> AttrId {
    AttrId(0)
}

fn population(values: &[i64]) -> Dataset {
    let tuples = values
        .iter()
        .enumerate()
        .map(|(i, &v)| Individual::new(i as u64, vec![v], 10))
        .collect();
    Dataset::new(schema(), tuples)
}

/// Three disjoint bands over [0, 100) with the given frequencies.
fn banded_query(freqs: [usize; 3]) -> SsdQuery {
    SsdQuery::new(vec![
        StratumConstraint::new(Formula::lt(x(), 30), freqs[0]),
        StratumConstraint::new(Formula::between(x(), 30, 69), freqs[1]),
        StratumConstraint::new(Formula::ge(x(), 70), freqs[2]),
    ])
}

/// Run MR-SQE on `data` under the given cluster shape and placement,
/// and return the reconstructed audit report.
fn audited_sqe(
    data: &Dataset,
    query: &SsdQuery,
    machines: usize,
    splits: usize,
    placement: Placement,
    seed: u64,
) -> QualityReport {
    let splits = to_input_splits(&data.distribute(machines, splits, placement));
    let registry = Registry::new();
    let cluster = Cluster::new(machines).with_telemetry(registry.clone());
    try_mr_sqe_on_splits(&cluster, &splits, query, seed).unwrap();
    QualityReport::from_snapshot(&registry.snapshot())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The audit ledger's inclusion-probability trails — candidates,
    /// sampled counts and therefore the HT weights — must not depend on
    /// the cluster width or on whether tuples are spread round-robin or
    /// packed contiguously (the skewed-placement scenario of §2).
    #[test]
    fn ht_weights_invariant_to_cluster_shape_and_placement(
        values in prop::collection::vec(0i64..100, 60..200),
        machines_a in 1usize..6,
        machines_b in 1usize..6,
        f0 in 1usize..8,
        f1 in 1usize..8,
        f2 in 1usize..8,
        seed in 0u64..1000,
    ) {
        let data = population(&values);
        let query = banded_query([f0, f1, f2]);
        let a = audited_sqe(&data, &query, machines_a, 2 * machines_a, Placement::RoundRobin, seed);
        let b = audited_sqe(&data, &query, machines_b, 3 * machines_b, Placement::Contiguous, seed);
        prop_assert_eq!(a.trails.len(), 3);
        prop_assert_eq!(&a.trails, &b.trails);
        for (ta, tb) in a.trails.iter().zip(&b.trails) {
            prop_assert_eq!(ta.ht_weight(), tb.ht_weight());
            // candidates = stratum size, sampled = min(f, N_k): the HT
            // weight is the population-per-sample expansion factor
            prop_assert_eq!(ta.sampled, (ta.requested).min(ta.candidates));
        }
    }
}

#[test]
fn realized_f_passes_the_binomial_bound_over_250_seeds() {
    let values: Vec<i64> = (0..400).map(|i| i % 100).collect();
    let data = population(&values);
    let splits = to_input_splits(&data.distribute(4, 8, Placement::RoundRobin));
    let query = banded_query([20, 35, 10]);
    for seed in 0..250u64 {
        let registry = Registry::new();
        let cluster = Cluster::new(4).with_telemetry(registry.clone());
        try_mr_sqe_on_splits(&cluster, &splits, &query, seed).unwrap();
        let report = QualityReport::from_snapshot(&registry.snapshot());
        assert_eq!(report.trails.len(), 3, "seed {seed}");
        assert!(
            report.all_within_bound(BIAS_GATE_Z),
            "seed {seed}: realized f outside the binomial bound:\n{}",
            report.render_text()
        );
        assert_eq!(report.starved_strata(), 0, "seed {seed}");
    }
}

#[test]
fn cps_audit_ledger_stays_within_bound_and_reports_no_negative_gap() {
    use stratmr::query::{CostModel, MssdQuery};
    let values: Vec<i64> = (0..300).map(|i| (i * 7) % 100).collect();
    let splits = to_input_splits(&population(&values).distribute(3, 6, Placement::RoundRobin));
    let queries = MssdQuery::new(
        vec![banded_query([8, 6, 4]), banded_query([5, 10, 3])],
        CostModel::paper_style(2, 4.0, &[], 0.0),
    );
    let explained = |solver| CpsConfig {
        explain: true,
        ..solver
    };
    for seed in 0..25u64 {
        let registry = Registry::new();
        let cluster = Cluster::new(3).with_telemetry(registry.clone());
        let run = try_mr_cps_on_splits(
            &cluster,
            &splits,
            &queries,
            explained(CpsConfig::mr_cps()),
            seed,
        )
        .expect("solvable");
        assert!(run.answer.satisfies(&queries), "seed {seed}");
        assert!(run.explain.unwrap().optimality_gap() >= 0.0, "seed {seed}");
        let report = QualityReport::from_snapshot(&registry.snapshot());
        assert!(!report.trails.is_empty(), "seed {seed}");
        assert!(
            report.all_within_bound(BIAS_GATE_Z),
            "seed {seed}: combined/residual trail outside the bound:\n{}",
            report.render_text()
        );
    }
    // the exact IP configuration reports a gap of exactly zero
    let registry = Registry::new();
    let cluster = Cluster::new(3).with_telemetry(registry.clone());
    let run = try_mr_cps_on_splits(
        &cluster,
        &splits,
        &queries,
        explained(CpsConfig::exact()),
        1,
    )
    .expect("solvable");
    assert_eq!(run.explain.unwrap().optimality_gap(), 0.0);
    // and a run without capture is unperturbed by it
    let plain = try_mr_cps_on_splits(&Cluster::new(3), &splits, &queries, CpsConfig::mr_cps(), 1)
        .expect("solvable");
    assert!(plain.answer.satisfies(&queries));
}
