//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * **combiner vs. naive** — Figure 2's combiner against Figure 1's
//!   everything-over-the-network baseline (time here; shuffle volume is
//!   asserted in unit tests and printed by the quickstart example);
//! * **block-decomposed vs. joint LP** — DESIGN.md substitution 4;
//! * **reference scan vs. compiled matcher** — first-match stratum
//!   lookup on a Large-shape query.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;
use stratmr_mapreduce::Cluster;
use stratmr_population::dblp::{DblpConfig, DblpGenerator};
use stratmr_population::Placement;
use stratmr_query::{GroupSpec, QueryGenerator};
use stratmr_sampling::cps::{try_mr_cps_on_splits, CpsConfig};
use stratmr_sampling::naive::naive_sqe_on_splits;
use stratmr_sampling::sqe::try_mr_sqe_on_splits;
use stratmr_sampling::to_input_splits;

fn bench_combiner_vs_naive(c: &mut Criterion) {
    let data = DblpGenerator::new(DblpConfig::default()).generate(20_000, 21);
    let dist = data.distribute(4, 8, Placement::RoundRobin);
    let splits = to_input_splits(&dist);
    let cluster = Cluster::new(4);
    let qgen = QueryGenerator::new(DblpGenerator::schema());
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let query = qgen.generate_ssd_proportional(&GroupSpec::SMALL, 100, data.tuples(), &mut rng);

    let mut group = c.benchmark_group("ablation/combiner");
    group.sample_size(15);
    group.bench_function("naive_figure1", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(naive_sqe_on_splits(&cluster, &splits, &query, seed).unwrap())
        })
    });
    group.bench_function("mr_sqe_figure2", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(try_mr_sqe_on_splits(&cluster, &splits, &query, seed).unwrap())
        })
    });
    group.finish();
}

fn bench_lp_decomposition(c: &mut Criterion) {
    let data = DblpGenerator::new(DblpConfig::default()).generate(15_000, 22);
    let dist = data.distribute(2, 4, Placement::RoundRobin);
    let splits = to_input_splits(&dist);
    let cluster = Cluster::new(2);
    let qgen = QueryGenerator::new(DblpGenerator::schema());
    let mssd = qgen.generate_paper_group_on(&GroupSpec::MEDIUM, 200, data.tuples(), 13);

    let mut group = c.benchmark_group("ablation/lp");
    group.sample_size(10);
    for (name, joint) in [("blockwise", false), ("joint", true)] {
        group.bench_function(name, |b| {
            let config = CpsConfig {
                joint_formulation: joint,
                ..CpsConfig::mr_cps()
            };
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(try_mr_cps_on_splits(&cluster, &splits, &mssd, config, seed).unwrap())
            })
        });
    }
    group.finish();
}

fn bench_stratum_match(c: &mut Criterion) {
    use stratmr_query::SelectionMatcher;
    let data = DblpGenerator::new(DblpConfig::default()).generate(20_000, 31);
    let qgen = QueryGenerator::new(DblpGenerator::schema());
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    // the Large shape: 256 strata per SSD
    let query = qgen.generate_ssd_proportional(&GroupSpec::LARGE, 5_000, data.tuples(), &mut rng);
    let mut group = c.benchmark_group("ablation/stratum_match");
    group.bench_function("reference_scan", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for t in data.tuples() {
                if query.matching_stratum(black_box(t)).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    // the build is inside the timed body, as in every sampling call
    group.bench_function("compiled_matcher", |b| {
        b.iter(|| {
            let matcher = SelectionMatcher::new(std::slice::from_ref(&query));
            let mut hits = 0usize;
            for t in data.tuples() {
                matcher.for_each_stratum(black_box(t), |_, k| hits += usize::from(k.is_some()));
            }
            black_box(hits)
        })
    });
    group.bench_function("compile_only", |b| {
        b.iter(|| {
            black_box(SelectionMatcher::new(std::slice::from_ref(black_box(
                &query,
            ))))
        })
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .without_plots()
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(3));
    targets =
    bench_combiner_vs_naive,
    bench_lp_decomposition,
    bench_stratum_match
);
criterion_main!(benches);
