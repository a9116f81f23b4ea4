//! Quickstart: one stratified-sampling query over a synthetic DBLP
//! population on a simulated 10-machine cluster.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use stratmr::mapreduce::Cluster;
use stratmr::population::dblp::{DblpConfig, DblpGenerator};
use stratmr::population::Placement;
use stratmr::query::{Formula, SsdQuery, StratumConstraint};
use stratmr::sampling::sqe::try_mr_sqe_on_splits;
use stratmr::sampling::to_input_splits;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A population of 50k synthetic DBLP authors (Table 1 attributes).
    let generator = DblpGenerator::new(DblpConfig::default());
    let population = generator.generate(50_000, 42);
    let schema = population.schema().clone();
    println!(
        "population: {} authors, {:.1} GB simulated storage",
        population.len(),
        population.total_bytes() as f64 / 1e9
    );

    // 2. Distribute onto 10 machines as 40 input splits.
    let splits = to_input_splits(&population.distribute(10, 40, Placement::RoundRobin));

    // 3. A stratified sample design: survey career stages separately.
    //    Veterans (first publication before 1990) are rare; stratifying
    //    guarantees them 20 seats without inflating the whole sample.
    let fy = schema.attr_id("fy").unwrap();
    let nop = schema.attr_id("nop").unwrap();
    let query = SsdQuery::new(vec![
        StratumConstraint::new(Formula::lt(fy, 1990), 20),
        StratumConstraint::new(Formula::ge(fy, 1990).and(Formula::ge(nop, 50)), 30),
        StratumConstraint::new(Formula::ge(fy, 1990).and(Formula::lt(nop, 50)), 50),
    ]);
    for (k, s) in query.constraints().iter().enumerate() {
        println!(
            "stratum {k}: {} → {} individuals",
            s.formula.display(&schema),
            s.frequency
        );
    }

    // 4. Run MR-SQE.
    let cluster = Cluster::new(10);
    let run = try_mr_sqe_on_splits(&cluster, &splits, &query, 7)?;

    println!("\nsample ({} individuals):", run.answer.len());
    for (k, _) in query.constraints().iter().enumerate() {
        let stratum = run.answer.stratum(k);
        println!("  stratum {k}: {} selected", stratum.len());
        for t in stratum.iter().take(3) {
            println!("    {}", t.display(&schema));
        }
        if stratum.len() > 3 {
            println!("    …");
        }
    }
    assert!(
        run.answer.satisfies(&query),
        "sample must satisfy the query"
    );

    println!("\nexecution:");
    println!("  tuples scanned     : {}", run.stats.map_input_records);
    println!(
        "  intermediate samples: {} (one per map task × stratum)",
        run.stats.combine_output_pairs
    );
    println!(
        "  shuffle volume     : {:.2} MB — the combiner kept the other {} matching tuples local",
        run.stats.shuffle_bytes as f64 / 1e6,
        run.stats.map_output_records,
    );
    println!(
        "  simulated makespan : {:.1} s on {} machines",
        run.stats.sim.makespan_secs(),
        cluster.machines()
    );
    Ok(())
}
