//! Multi-survey market research — the paper's Examples 3 and 6.
//!
//! A market-research firm runs two surveys in parallel over one social
//! network: survey A interviews men, survey B interviews singles. Every
//! interviewed individual must be anonymized ($1 per individual), so
//! sharing individuals across surveys saves money — but naively maximizing
//! sharing (e.g. filling survey A with single men) would bias both
//! samples. MR-CPS shares exactly as much as a representative sample
//! allows.
//!
//! ```text
//! cargo run --release --example market_research
//! ```

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use stratmr::mapreduce::Cluster;
use stratmr::population::{AttrDef, Dataset, Individual, Placement, Schema};
use stratmr::query::{CostModel, Formula, MssdQuery, SharingBase, SsdQuery, StratumConstraint};
use stratmr::sampling::cps::{try_mr_cps_on_splits, CpsConfig};
use stratmr::sampling::mqe::try_mr_mqe_on_splits;
use stratmr::sampling::to_input_splits;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A population with gender, marital status and income.
    let schema = Schema::new(vec![
        AttrDef::categorical("gender", &["male", "female"]),
        AttrDef::categorical("status", &["single", "married"]),
        AttrDef::numeric("income", 0, 400_000),
    ]);
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let tuples: Vec<Individual> = (0..20_000u64)
        .map(|id| {
            let gender = rng.gen_range(0..2);
            let status = if rng.gen_bool(0.4) { 0 } else { 1 };
            let income = rng.gen_range(10_000..250_000);
            Individual::new(id, vec![gender, status, income], 2_000)
        })
        .collect();
    let population = Dataset::new(schema.clone(), tuples);
    let splits = to_input_splits(&population.distribute(5, 10, Placement::RoundRobin));
    let cluster = Cluster::new(5);

    let gender = schema.attr_id("gender").unwrap();
    let status = schema.attr_id("status").unwrap();
    let male = schema.encode_label(gender, "male").unwrap();
    let single = schema.encode_label(status, "single").unwrap();

    // Example 3: survey A = 50 men, survey B = 100 singles; $1 anonymization.
    let survey_a = SsdQuery::new(vec![StratumConstraint::new(Formula::eq(gender, male), 50)]);
    let survey_b = SsdQuery::new(vec![StratumConstraint::new(
        Formula::eq(status, single),
        100,
    )]);
    // Anonymizing an individual costs $1 regardless of how many surveys
    // reuse the anonymized record.
    let costs = CostModel::new(vec![1.0, 1.0], SharingBase::Max);
    let mssd = MssdQuery::new(vec![survey_a, survey_b], costs);

    println!("survey A: 50 men — survey B: 100 singles — $1 anonymization each\n");

    // Cost-oblivious baseline: independent samples (MR-MQE).
    let mqe = try_mr_mqe_on_splits(&cluster, &splits, mssd.queries(), None, 7)?;
    let mqe_cost = mqe.answer.cost(mssd.costs());
    println!(
        "MR-MQE (no sharing optimization): {} unique individuals, ${:.0}",
        mqe.answer.unique_individuals(),
        mqe_cost
    );

    // Cost-aware MR-CPS.
    let cps = try_mr_cps_on_splits(&cluster, &splits, &mssd, CpsConfig::mr_cps(), 7)?;
    println!(
        "MR-CPS (optimal sharing)        : {} unique individuals, ${:.0}",
        cps.answer.unique_individuals(),
        cps.cost
    );
    println!(
        "saving: {:.0}%  (LP objective ${:.2}, residual top-ups: {})\n",
        100.0 * (1.0 - cps.cost / mqe_cost),
        cps.solver_objective,
        cps.residual_selections
    );

    assert!(
        cps.answer.satisfies(&mssd),
        "every survey must be satisfied"
    );

    // Representativeness: single men in survey A should track the
    // population rate (~40%), not be inflated to maximize sharing.
    let single_men_in_a = cps
        .answer
        .answer(0)
        .iter()
        .filter(|t| t.get(status) == single)
        .count();
    println!(
        "single men in survey A: {single_men_in_a}/50 (population rate ≈ 40%) — \
         sharing did not bias the sample"
    );

    let hist = cps.answer.sharing_histogram(2);
    println!(
        "sharing histogram: {} individuals in 1 survey, {} in both",
        hist[0], hist[1]
    );

    // Example 4 flavor: different interview costs with Max sharing.
    println!("\n--- Example 4: $20 face-to-face + $4 telephone ---");
    let face_to_face = SsdQuery::new(vec![StratumConstraint::new(Formula::eq(gender, male), 30)]);
    let telephone = SsdQuery::new(vec![StratumConstraint::new(
        Formula::eq(status, single),
        60,
    )]);
    let costs = CostModel::new(vec![20.0, 4.0], SharingBase::Max);
    let mssd2 = MssdQuery::new(vec![face_to_face, telephone], costs);
    let run2 = try_mr_cps_on_splits(&cluster, &splits, &mssd2, CpsConfig::mr_cps(), 9)?;
    let baseline2 = try_mr_mqe_on_splits(&cluster, &splits, mssd2.queries(), None, 9)?
        .answer
        .cost(mssd2.costs());
    println!(
        "MR-CPS ${:.0} vs MR-MQE ${:.0} — a shared individual costs max($20, $4) = $20",
        run2.cost, baseline2
    );
    Ok(())
}
