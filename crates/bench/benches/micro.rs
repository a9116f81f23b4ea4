//! Micro-benchmarks of the core algorithmic building blocks.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;
use stratmr_lp::{solve_ip, solve_lp, Problem, Relation};
use stratmr_population::dblp::{DblpConfig, DblpGenerator};
use stratmr_query::{Formula, SelectionMatcher, SsdQuery, StratumConstraint};
use stratmr_sampling::reservoir::Reservoir;
use stratmr_sampling::sst::StratumSelection;
use stratmr_sampling::tally::SigmaTally;
use stratmr_sampling::unified::{unified_sampler, IntermediateSample};

fn bench_reservoir(c: &mut Criterion) {
    let mut group = c.benchmark_group("reservoir");
    let n = 100_000u64;
    group.throughput(Throughput::Elements(n));
    group.bench_function("algorithm_r_k100", |b| {
        b.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            let mut r = Reservoir::new(100);
            for i in 0..n {
                r.observe(black_box(i), &mut rng);
            }
            black_box(r.into_parts())
        })
    });
    group.finish();
}

fn bench_unified_sampler(c: &mut Criterion) {
    c.bench_function("unified_sampler_40_blocks", |b| {
        b.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(2);
            let samples: Vec<IntermediateSample<u64>> = (0..40)
                .map(|i| IntermediateSample::new((0..100).map(|j| i * 1000 + j).collect(), 2500))
                .collect();
            black_box(unified_sampler(samples, 100, &mut rng))
        })
    });
}

fn bench_formula_eval(c: &mut Criterion) {
    let data = DblpGenerator::new(DblpConfig::default()).generate(10_000, 3);
    let schema = DblpGenerator::schema();
    let nop = schema.attr_id("nop").unwrap();
    let fy = schema.attr_id("fy").unwrap();
    let query = SsdQuery::new(
        (0..64)
            .map(|k| {
                StratumConstraint::new(
                    Formula::between(nop, k * 11, k * 11 + 10)
                        .and(Formula::between(fy, 1936, 2013)),
                    1,
                )
            })
            .collect(),
    );
    let mut group = c.benchmark_group("formula");
    group.throughput(Throughput::Elements(data.len() as u64));
    group.bench_function("matching_stratum_64_strata", |b| {
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
    let matcher = SelectionMatcher::new(std::slice::from_ref(&query));
    group.bench_function("compiled_matcher_64_strata", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for t in data.tuples() {
                matcher.for_each_stratum(black_box(t), |_, k| hits += usize::from(k.is_some()));
            }
            black_box(hits)
        })
    });
    group.finish();
}

fn bench_sigma_tally(c: &mut Criterion) {
    let data = DblpGenerator::new(DblpConfig::default()).generate(5_000, 4);
    let schema = DblpGenerator::schema();
    let nop = schema.attr_id("nop").unwrap();
    let cc = schema.attr_id("cc").unwrap();
    let queries: Vec<SsdQuery> = (0..6)
        .map(|i| {
            SsdQuery::new(vec![
                StratumConstraint::new(Formula::lt(if i % 2 == 0 { nop } else { cc }, 50), 1),
                StratumConstraint::new(Formula::ge(if i % 2 == 0 { nop } else { cc }, 50), 1),
            ])
        })
        .collect();
    let mut group = c.benchmark_group("sigma_tally");
    group.throughput(Throughput::Elements(data.len() as u64));
    let matcher = SelectionMatcher::new(&queries);
    group.bench_function("build_6_queries", |b| {
        b.iter(|| black_box(SigmaTally::of_tuples(data.tuples().iter(), &matcher)))
    });
    let tally = SigmaTally::of_tuples(data.tuples().iter(), &matcher);
    let probe = StratumSelection::of(&data.tuples()[0], &matcher);
    group.bench_function("lookup", |b| b.iter(|| black_box(tally.count(&probe))));
    group.finish();
}

fn bench_lp(c: &mut Criterion) {
    // A CPS-shaped block: 4 surveys → 15 τ variables, 5 constraints.
    let build = || {
        let mut p = Problem::new();
        let vars: Vec<_> = (0..15)
            .map(|i| p.add_var(4.0 + (i % 3) as f64 * 5.0))
            .collect();
        for i in 0..4usize {
            let coeffs: Vec<_> = vars
                .iter()
                .enumerate()
                .filter(|(tau, _)| (tau + 1) & (1 << i) != 0)
                .map(|(_, &v)| (v, 1.0))
                .collect();
            p.add_constraint(coeffs, Relation::Eq, 10.0 + i as f64);
        }
        p.add_constraint(vars.iter().map(|&v| (v, 1.0)).collect(), Relation::Le, 60.0);
        p
    };
    let mut group = c.benchmark_group("lp");
    group.bench_function("simplex_cps_block", |b| {
        let p = build();
        b.iter(|| black_box(solve_lp(&p, None).unwrap()))
    });
    group.bench_function("branch_bound_cps_block", |b| {
        let p = build();
        b.iter(|| black_box(solve_ip(&p, None).unwrap()))
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
    bench_reservoir,
    bench_unified_sampler,
    bench_formula_eval,
    bench_sigma_tally,
    bench_lp
);
criterion_main!(benches);
