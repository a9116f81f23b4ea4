//! Integration test of the paper's central statistical claim (§4.2):
//! MR-SQE produces unbiased stratified samples on a distributed dataset,
//! even under skewed data placement, because the combiner annotates
//! intermediate samples with source-set sizes and the reducer adjusts
//! with the unified sampler.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use stratmr::mapreduce::Cluster;
use stratmr::population::{AttrDef, AttrId, Dataset, Individual, Placement, Schema};
use stratmr::query::{Formula, SsdQuery, StratumConstraint};
use stratmr::sampling::naive::naive_sqe_on_splits;
use stratmr::sampling::sqe::try_mr_sqe_on_splits;
use stratmr::sampling::stats::{
    binomial_within_bound, chi2_critical_999, chi2_gof_ok, chi2_uniform, hypergeometric_pmf,
};
use stratmr::sampling::to_input_splits;

fn skewed_population(n: usize) -> (Dataset, AttrId) {
    // attribute encodes a "region": values sorted, so SortedBy placement
    // puts each region on its own machine — the geographic-skew scenario
    // of §2 under which split-local sampling breaks.
    let schema = Schema::new(vec![AttrDef::numeric("region", 0, 9)]);
    let region = schema.attr_id("region").unwrap();
    let tuples = (0..n as u64)
        .map(|i| Individual::new(i, vec![(i % 10) as i64], 10))
        .collect();
    (Dataset::new(schema, tuples), region)
}

#[test]
fn mr_sqe_is_unbiased_under_geographic_skew() {
    let (data, region) = skewed_population(120);
    let splits = to_input_splits(&data.distribute(4, 4, Placement::SortedBy(region)));
    // one stratum covering regions 0..5 (placed on ~2 machines only)
    let q = SsdQuery::new(vec![StratumConstraint::new(Formula::lt(region, 5), 3)]);
    let cluster = Cluster::new(4);

    let eligible: Vec<u64> = data
        .tuples()
        .iter()
        .filter(|t| t.get(region) < 5)
        .map(|t| t.id)
        .collect();
    let mut counts = vec![0u64; eligible.len()];
    let trials = 6000;
    for s in 0..trials {
        let run = try_mr_sqe_on_splits(&cluster, &splits, &q, s).unwrap();
        assert_eq!(run.answer.stratum(0).len(), 3);
        for t in run.answer.stratum(0) {
            let pos = eligible.iter().position(|&id| id == t.id).unwrap();
            counts[pos] += 1;
        }
    }
    let chi2 = chi2_uniform(&counts);
    let crit = chi2_critical_999(counts.len() - 1);
    assert!(chi2 < crit, "MR-SQE biased under skew: {chi2} >= {crit}");
}

#[test]
fn naive_mapreduce_sampler_is_also_unbiased() {
    // The naive Figure 1 program ships everything to one reducer, so it
    // is slow but NOT biased — the bias danger is in local sub-sampling
    // without size adjustment, which MR-SQE's combiner design avoids.
    let (data, region) = skewed_population(60);
    let splits = to_input_splits(&data.distribute(3, 3, Placement::SortedBy(region)));
    let q = SsdQuery::new(vec![StratumConstraint::new(Formula::lt(region, 6), 2)]);
    let cluster = Cluster::new(3);
    let eligible: Vec<u64> = data
        .tuples()
        .iter()
        .filter(|t| t.get(region) < 6)
        .map(|t| t.id)
        .collect();
    let mut counts = vec![0u64; eligible.len()];
    let trials = 6000;
    for s in 0..trials {
        let run = naive_sqe_on_splits(&cluster, &splits, &q, s).unwrap();
        for t in run.answer.stratum(0) {
            let pos = eligible.iter().position(|&id| id == t.id).unwrap();
            counts[pos] += 1;
        }
    }
    let chi2 = chi2_uniform(&counts);
    let crit = chi2_critical_999(counts.len() - 1);
    assert!(chi2 < crit, "naive sampler biased: {chi2} >= {crit}");
}

/// Per-individual inclusion frequencies across ≥200 explicitly seeded
/// MR-SQE runs. Each individual in stratum `k` must be included with
/// probability `f_k / N_k`, so its inclusion count over `trials` runs is
/// Binomial(trials, f_k/N_k) — checked with an explicit z-tolerance per
/// individual and a chi-square goodness-of-fit per stratum. Unequal
/// stratum fractions (4/60 vs 9/60) would expose any bias that a single
/// uniform-stratum test could mask.
#[test]
fn per_stratum_inclusion_frequencies_are_unbiased() {
    let (data, region) = skewed_population(120);
    let splits = to_input_splits(&data.distribute(4, 6, Placement::SortedBy(region)));
    // stratum 0: regions 0..5 (60 eligible, f = 4); stratum 1: regions
    // 5..10 (60 eligible, f = 9) — different inclusion probabilities.
    let q = SsdQuery::new(vec![
        StratumConstraint::new(Formula::lt(region, 5), 4),
        StratumConstraint::new(Formula::ge(region, 5), 9),
    ]);
    let cluster = Cluster::new(4);

    let trials: u64 = 250; // explicit seeds 0..250
    let fractions = [4.0 / 60.0, 9.0 / 60.0];
    let mut counts = vec![0u64; 120];
    for seed in 0..trials {
        let run = try_mr_sqe_on_splits(&cluster, &splits, &q, seed).unwrap();
        assert_eq!(run.answer.stratum(0).len(), 4);
        assert_eq!(run.answer.stratum(1).len(), 9);
        for k in 0..2 {
            for t in run.answer.stratum(k) {
                counts[t.id as usize] += 1;
            }
        }
    }
    // per-individual two-sided binomial check, tolerance z = 4.5σ
    for (id, &c) in counts.iter().enumerate() {
        let stratum = usize::from(id % 10 >= 5);
        let p = fractions[stratum];
        assert!(
            binomial_within_bound(c, trials, p, 4.5),
            "individual {id} (stratum {stratum}): included {c} of {trials} runs, p = {p:.4}"
        );
    }
    // per-stratum chi-square GOF against the flat expectation
    for (k, &f) in fractions.iter().enumerate() {
        let observed: Vec<u64> = (0..120)
            .filter(|id| usize::from(id % 10 >= 5) == k)
            .map(|id| counts[id])
            .collect();
        let expected = vec![trials as f64 * f; observed.len()];
        assert!(
            chi2_gof_ok(&observed, &expected),
            "stratum {k} inclusion frequencies biased"
        );
    }
}

/// Remark 1: within one sub-relation `R_j`, the number of selected
/// tuples among the first `x` tuples follows a hypergeometric
/// distribution. We verify the full-population version: the count of
/// final selections landing in machine 1's block is hypergeometric.
#[test]
fn per_machine_selection_counts_are_hypergeometric() {
    let schema = Schema::new(vec![AttrDef::numeric("v", 0, 0)]);
    // 30 identical individuals: machine 1 holds 12, machine 2 holds 18
    let tuples: Vec<Individual> = (0..30u64)
        .map(|i| Individual::new(i, vec![0], 10))
        .collect();
    let data = Dataset::new(schema, tuples);
    let splits = to_input_splits(&data.distribute(2, 2, Placement::Contiguous)); // 15 / 15
    let q = SsdQuery::new(vec![StratumConstraint::new(Formula::eq(AttrId(0), 0), 4)]);
    let cluster = Cluster::new(2);

    let trials = 20_000u64;
    let mut counts = [0u64; 5]; // selections from machine 1 ∈ 0..=4
    for s in 0..trials {
        let run = try_mr_sqe_on_splits(&cluster, &splits, &q, s).unwrap();
        let in_first = run.answer.stratum(0).iter().filter(|t| t.id < 15).count();
        counts[in_first] += 1;
    }
    // expected: Hypergeometric(N = 30, K = 15, n = 4)
    let mut chi2 = 0.0;
    for y in 0..5u64 {
        let expected = trials as f64 * hypergeometric_pmf(30, 15, 4, y);
        chi2 += (counts[y as usize] as f64 - expected).powi(2) / expected;
    }
    let crit = chi2_critical_999(4);
    assert!(
        chi2 < crit,
        "block counts not hypergeometric: {chi2} >= {crit}"
    );
}

/// Stratification never leaks: tuples outside every stratum are never
/// selected, whatever the placement.
#[test]
fn no_stratum_no_selection() {
    let (data, region) = skewed_population(200);
    for placement in [
        Placement::RoundRobin,
        Placement::Contiguous,
        Placement::SortedBy(region),
        Placement::Shuffled(5),
    ] {
        let splits = to_input_splits(&data.distribute(4, 8, placement));
        let q = SsdQuery::new(vec![StratumConstraint::new(Formula::lt(region, 2), 6)]);
        let run = try_mr_sqe_on_splits(&Cluster::new(4), &splits, &q, 1).unwrap();
        assert_eq!(run.answer.stratum(0).len(), 6);
        assert!(run.answer.iter().all(|t| t.get(region) < 2));
    }
}

/// Determinism across the whole stack: same seed → identical answers,
/// independent of the number of *reduce tasks* configured? (No — the
/// partitioning changes reduce seeds.) But identical config must be
/// bit-for-bit stable.
#[test]
fn cross_crate_determinism() {
    let (data, _region) = skewed_population(300);
    let splits = to_input_splits(&data.distribute(5, 10, Placement::RoundRobin));
    let q = SsdQuery::new(vec![StratumConstraint::new(Formula::ge(AttrId(0), 5), 11)]);
    let cluster = Cluster::new(5);
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    use rand::Rng;
    let seed: u64 = rng.gen();
    let a = try_mr_sqe_on_splits(&cluster, &splits, &q, seed).unwrap();
    let b = try_mr_sqe_on_splits(&cluster, &splits, &q, seed).unwrap();
    assert_eq!(a.answer, b.answer);
    assert_eq!(a.stats.shuffle_bytes, b.stats.shuffle_bytes);
}
