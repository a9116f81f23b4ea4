//! Every individual is equally likely to be sampled for each survey,
//! whichever split holds it.
//!
//! MR-CPS answers an MSSD by sampling each stratum selection σ once (the
//! combined MR-SQE job) and dealing the sample out to the survey sets τ
//! of the plan. Per-stratum counts come out right by construction, so
//! the audit ledger cannot see a biased deal. This test can: over a few
//! hundred seeds, on a population spread round-robin over six splits and
//! three surveys whose strata cross (so each stratum spans several σ of
//! unequal size), it counts how often each individual lands in each
//! survey's answer, and checks every individual against its binomial
//! bound and every stratum with a χ² goodness-of-fit test. MR-MQE, the
//! paper's reference sampler, must pass the same checks as the three
//! MR-CPS configurations.
//!
//! Joint inclusion across surveys is correlated on purpose (sharing
//! individuals is what MR-CPS saves money with), so it is reported but
//! not gated.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use stratmr::mapreduce::{Cluster, InputSplit};
use stratmr::population::{AttrDef, AttrId, Dataset, Individual, Placement, Schema};
use stratmr::query::{CostModel, Formula, MssdAnswer, MssdQuery, SsdQuery, StratumConstraint};
use stratmr::sampling::cps::{try_mr_cps_on_splits, CpsConfig};
use stratmr::sampling::stats::{binomial_within_bound, chi2_gof_ok, chi2_statistic};
use stratmr::sampling::{to_input_splits, try_mr_mqe_on_splits};

const SEEDS: u64 = 400;
const Z: f64 = 4.5;

fn x() -> AttrId {
    AttrId(0)
}

fn y() -> AttrId {
    AttrId(1)
}

/// 150 individuals with `x, y` drawn uniformly from `0..=9`.
fn population() -> Dataset {
    let schema = Schema::new(vec![
        AttrDef::numeric("x", 0, 9),
        AttrDef::numeric("y", 0, 9),
    ]);
    let mut rng = ChaCha8Rng::seed_from_u64(150);
    let tuples = (0..150u64)
        .map(|i| Individual::new(i, vec![rng.gen_range(0..=9), rng.gen_range(0..=9)], 10))
        .collect();
    Dataset::new(schema, tuples)
}

/// `x<4 | x≥4` with f 6/12, `y<6 | y≥6` with f 10/7, and
/// `x<7∧y<3 | x≥7` with f 5/9.
fn surveys() -> Vec<SsdQuery> {
    let ssd = |strata: Vec<(Formula, usize)>| {
        SsdQuery::new(
            strata
                .into_iter()
                .map(|(phi, f)| StratumConstraint::new(phi, f))
                .collect(),
        )
    };
    vec![
        ssd(vec![(Formula::lt(x(), 4), 6), (Formula::ge(x(), 4), 12)]),
        ssd(vec![(Formula::lt(y(), 6), 10), (Formula::ge(y(), 6), 7)]),
        ssd(vec![
            (Formula::lt(x(), 7).and(Formula::lt(y(), 3)), 5),
            (Formula::ge(x(), 7), 9),
        ]),
    ]
}

#[derive(Clone, Copy, Debug)]
enum Sampler {
    Mqe,
    Cps(&'static str, fn() -> CpsConfig),
}

const SAMPLERS: [Sampler; 4] = [
    Sampler::Mqe,
    Sampler::Cps("mr_cps", CpsConfig::mr_cps),
    Sampler::Cps("paper", CpsConfig::paper),
    Sampler::Cps("exact", CpsConfig::exact),
];

/// Per-survey inclusion counts of every individual over `SEEDS` runs,
/// plus the pairwise joint-inclusion counts and the residual total.
struct Tally {
    included: Vec<Vec<u64>>,
    joint: Vec<Vec<Vec<u64>>>,
    residual_selections: usize,
    selections: usize,
    unique: usize,
}

fn run(sampler: Sampler, splits: &[InputSplit<Individual>], mssd: &MssdQuery, pop: usize) -> Tally {
    let n = mssd.len();
    let cluster = Cluster::new(3);
    let mut tally = Tally {
        included: vec![vec![0; pop]; n],
        joint: vec![vec![vec![0; pop]; n]; n],
        residual_selections: 0,
        selections: 0,
        unique: 0,
    };
    for seed in 0..SEEDS {
        let answer: MssdAnswer = match sampler {
            Sampler::Mqe => {
                try_mr_mqe_on_splits(&cluster, splits, mssd.queries(), None, seed)
                    .expect("no faults are injected")
                    .answer
            }
            Sampler::Cps(_, config) => {
                let run = try_mr_cps_on_splits(&cluster, splits, mssd, config(), seed)
                    .expect("a representative answer is always a feasible plan");
                tally.residual_selections += run.residual_selections;
                run.answer
            }
        };
        assert!(answer.satisfies(mssd), "{sampler:?} seed {seed}");
        tally.selections += answer.total_selections();
        tally.unique += answer.unique_individuals();
        for (id, tau) in answer.survey_sets() {
            let t = id as usize;
            for i in tau.iter() {
                tally.included[i][t] += 1;
                for j in tau.iter().filter(|&j| j > i) {
                    tally.joint[i][j][t] += 1;
                }
            }
        }
    }
    tally
}

/// Check every survey's strata and individuals; returns the failures.
fn check(name: &str, tally: &Tally, data: &Dataset, mssd: &MssdQuery) -> Vec<String> {
    let mut failures = Vec::new();
    for (i, q) in mssd.queries().iter().enumerate() {
        for k in 0..q.len() {
            let members: Vec<usize> = data
                .tuples()
                .iter()
                .filter(|t| q.matching_stratum(t) == Some(k))
                .map(|t| t.id as usize)
                .collect();
            let f = q.stratum(k).frequency;
            let p = (f as f64 / members.len() as f64).min(1.0);
            let observed: Vec<u64> = members.iter().map(|&t| tally.included[i][t]).collect();
            let worst_z = observed
                .iter()
                .map(|&c| {
                    let mean = SEEDS as f64 * p;
                    (c as f64 - mean) / (mean * (1.0 - p)).sqrt().max(1e-9)
                })
                .fold(0.0f64, |a, z| a.max(z.abs()));
            let expected = vec![SEEDS as f64 * p; members.len()];
            let chi2 = chi2_statistic(&observed, &expected);
            println!(
                "{name}: survey {i} stratum {k}: {} members, f {f}, χ² {chi2:.1} on {} df, \
                 worst |z| {worst_z:.2}",
                members.len(),
                members.len() - 1
            );
            if p < 1.0 && !chi2_gof_ok(&observed, &expected) {
                failures.push(format!(
                    "{name}: survey {i} stratum {k}: χ² {chi2:.1} on {} df",
                    members.len() - 1
                ));
            }
            for (&t, &c) in members.iter().zip(&observed) {
                if !binomial_within_bound(c, SEEDS, p, Z) {
                    failures.push(format!(
                        "{name}: survey {i} stratum {k}: individual {t} sampled {c} of {SEEDS} \
                         times, expected {:.1}",
                        SEEDS as f64 * p
                    ));
                }
            }
        }
    }
    failures
}

/// Pearson correlation of the inclusion indicators of surveys `i` and
/// `j`, over every (individual, seed) cell eligible for both.
fn joint_correlation(tally: &Tally, data: &Dataset, mssd: &MssdQuery, i: usize, j: usize) -> f64 {
    let (qi, qj) = (&mssd.queries()[i], &mssd.queries()[j]);
    let (mut cells, mut si, mut sj, mut sij) = (0.0, 0.0, 0.0, 0.0);
    for t in data.tuples() {
        if qi.matching_stratum(t).is_none() || qj.matching_stratum(t).is_none() {
            continue;
        }
        let id = t.id as usize;
        cells += SEEDS as f64;
        si += tally.included[i][id] as f64;
        sj += tally.included[j][id] as f64;
        sij += tally.joint[i][j][id] as f64;
    }
    let (pi, pj, pij) = (si / cells, sj / cells, sij / cells);
    (pij - pi * pj) / (pi * (1.0 - pi) * pj * (1.0 - pj)).sqrt()
}

/// Run every sampler on `costs` and require every check to pass.
/// Returns each sampler's residual selections and mean survey-set size.
fn assert_unbiased(case: &str, costs: CostModel) -> Vec<(usize, f64)> {
    let data = population();
    let splits = to_input_splits(&data.distribute(3, 6, Placement::RoundRobin));
    let mssd = MssdQuery::new(surveys(), costs);
    let mut failures = Vec::new();
    let mut summary = Vec::new();
    for sampler in SAMPLERS {
        let name = match sampler {
            Sampler::Mqe => format!("{case}/mr_mqe"),
            Sampler::Cps(config, _) => format!("{case}/{config}"),
        };
        let tally = run(sampler, &splits, &mssd, data.len());
        failures.extend(check(&name, &tally, &data, &mssd));
        let sharing = tally.selections as f64 / tally.unique as f64;
        println!(
            "{name}: {:.3} surveys per sampled individual, {} residual selections, joint \
             inclusion correlation (0,1) {:.3}, (0,2) {:.3}, (1,2) {:.3}",
            sharing,
            tally.residual_selections,
            joint_correlation(&tally, &data, &mssd, 0, 1),
            joint_correlation(&tally, &data, &mssd, 0, 2),
            joint_correlation(&tally, &data, &mssd, 1, 2),
        );
        summary.push((tally.residual_selections, sharing));
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    summary
}

/// The paper's cost model: one interview serves every survey in τ, so
/// sharing is cheap and the LP shares every individual it can.
#[test]
fn crossing_surveys_are_unbiased_per_individual() {
    let summary = assert_unbiased("paper-style", CostModel::paper_style(3, 4.0, &[], 3.0));
    let (mqe, cps) = (summary[0].1, summary[1].1);
    assert!(
        cps > mqe,
        "the LP must share more than MR-MQE: {cps} vs {mqe}"
    );
}

/// Penalizing every pair makes the cheapest cover of a σ sampled by all
/// three surveys the half-integral one (three pairs at ½ each), so the
/// LP rounds down and the residual phase has to top up.
#[test]
fn residual_rounds_stay_unbiased() {
    let summary = assert_unbiased(
        "residual",
        CostModel::paper_style(3, 4.0, &[(0, 1), (0, 2), (1, 2)], 3.0),
    );
    for (residual, _) in &summary[1..3] {
        assert!(
            *residual > 0,
            "the LP schedules must exercise residual rounds"
        );
    }
}
