//! **Table 2**: survey cost of MR-CPS as a percentage of MR-MQE's.
//!
//! Paper (100 GB DBLP extract, 100 runs):
//! `Small 62% — Medium 51% — Large 47%`, the ratio falling with group
//! size because larger groups offer more sharing opportunities.

use super::{ExpOutput, Obs};
use crate::artifact::MetricSeries;
use crate::env::BenchEnv;
use crate::Table;
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use stratmr_query::GroupSpec;
use stratmr_sampling::cps::{try_mr_cps_on_splits, CpsConfig};
use stratmr_sampling::mqe::try_mr_mqe_on_splits;

#[derive(Serialize)]
struct Record {
    dataset: String,
    population: usize,
    sample_size: usize,
    runs: usize,
    group: String,
    avg_cost_mqe: f64,
    avg_cost_cps: f64,
    ratio_percent: f64,
    paper_percent: f64,
}

/// Run the Table 2 cost-ratio comparison.
pub fn run(env: &BenchEnv, obs: &Obs) -> ExpOutput {
    let dataset = if env.config.uniform {
        "uniform"
    } else {
        "dblp"
    };
    // Table 2 aggregates per group; use the middle scale.
    let sample_size = env.config.scales[env.config.scales.len() / 2];
    let runs = env.config.runs;
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Table 2 — cost(MR-CPS) / cost(MR-MQE), {dataset} dataset, \
         population {}, sample {} per SSD, {} runs\n",
        env.config.population, sample_size, runs
    );

    let cluster = obs.cluster(env.cluster(env.config.machines));
    let paper = [62.0, 51.0, 47.0];
    let mut table = Table::new(&["group", "avg cost MQE", "avg cost CPS", "CPS/MQE", "paper"]);
    let mut records = Vec::new();
    let mut metrics = BTreeMap::new();
    for (g, spec) in GroupSpec::ALL.iter().enumerate() {
        let mut mqe_costs = Vec::with_capacity(runs);
        let mut cps_costs = Vec::with_capacity(runs);
        let mut ratios = Vec::with_capacity(runs);
        for run in 0..runs {
            // a fresh query group per run, as in the paper's averaging
            let mssd = env.group(spec, sample_size, 1000 + run as u64);
            let seed = 5000 + run as u64;
            let mqe = try_mr_mqe_on_splits(&cluster, &env.splits, mssd.queries(), None, seed)
                .expect("a healthy cluster completes every job");
            let mqe_cost = mqe.answer.cost(mssd.costs());
            let cps = try_mr_cps_on_splits(&cluster, &env.splits, &mssd, CpsConfig::mr_cps(), seed)
                .expect("CPS program must be solvable");
            mqe_costs.push(mqe_cost);
            cps_costs.push(cps.cost);
            ratios.push(100.0 * cps.cost / mqe_cost);
        }
        let avg_mqe = mqe_costs.iter().sum::<f64>() / runs as f64;
        let avg_cps = cps_costs.iter().sum::<f64>() / runs as f64;
        let ratio = 100.0 * avg_cps / avg_mqe;
        table.row(vec![
            spec.name.to_string(),
            format!("${avg_mqe:.0}"),
            format!("${avg_cps:.0}"),
            format!("{ratio:.0}%"),
            format!("{:.0}%", paper[g]),
        ]);
        let key = spec.name.to_lowercase();
        metrics.insert(
            format!("cost.mqe.{key}"),
            MetricSeries::new("dollars", mqe_costs),
        );
        metrics.insert(
            format!("cost.cps.{key}"),
            MetricSeries::new("dollars", cps_costs),
        );
        metrics.insert(
            format!("cost_ratio.{key}"),
            MetricSeries::new("percent", ratios),
        );
        records.push(Record {
            dataset: dataset.to_string(),
            population: env.config.population,
            sample_size,
            runs,
            group: spec.name.to_string(),
            avg_cost_mqe: avg_mqe,
            avg_cost_cps: avg_cps,
            ratio_percent: ratio,
            paper_percent: paper[g],
        });
    }
    text.push_str(&table.render());
    ExpOutput {
        name: "table2_cost_ratio",
        record_name: format!("table2_{dataset}"),
        text,
        records_json: serde_json::to_string_pretty(&records).unwrap(),
        metrics,
    }
}
