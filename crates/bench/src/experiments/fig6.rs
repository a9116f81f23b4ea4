//! **Figure 6**: for `1 ≤ i ≤ 9`, the percentage of individuals assigned
//! to `i` surveys by MR-CPS (1 = no sharing), averaged over runs.
//!
//! Paper: MR-CPS assigns each individual to ≈ 2 surveys on average,
//! while MR-MQE's incidental sharing never exceeds 4%.

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
    group: String,
    sample_size: usize,
    runs: usize,
    cps_percent_by_degree: Vec<f64>,
    cps_avg_degree: f64,
    mqe_shared_percent: f64,
}

/// Run the Figure 6 sharing-degree experiment.
pub fn run(env: &BenchEnv, obs: &Obs) -> ExpOutput {
    let sample_size = env.config.scales[env.config.scales.len() / 2];
    let runs = env.config.runs;
    let cluster = obs.cluster(env.cluster(env.config.machines));
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Figure 6 — %% of individuals assigned to i surveys by MR-CPS \
         (population {}, sample {}, {} runs)\n",
        env.config.population, sample_size, runs
    );

    let max_n = GroupSpec::LARGE.n_ssds;
    let mut table = Table::new(&["i", "Small", "Medium", "Large"]);
    let mut columns: Vec<Vec<f64>> = Vec::new();
    let mut records = Vec::new();
    let mut metrics = BTreeMap::new();
    for spec in &GroupSpec::ALL {
        let mut hist_sum = vec![0usize; spec.n_ssds];
        let mut unique_sum = 0usize;
        let mut mqe_shared = 0usize;
        let mut mqe_unique = 0usize;
        let mut degree_samples = Vec::with_capacity(runs);
        let mut mqe_pct_samples = Vec::with_capacity(runs);
        for run in 0..runs {
            let mssd = env.group(spec, sample_size, 2000 + run as u64);
            let seed = 7000 + run as u64;
            let cps = try_mr_cps_on_splits(&cluster, &env.splits, &mssd, CpsConfig::mr_cps(), seed)
                .expect("solvable");
            let hist = cps.answer.sharing_histogram(spec.n_ssds);
            let mut run_degree = 0usize;
            let mut run_unique = 0usize;
            for (d, &c) in hist.iter().enumerate() {
                hist_sum[d] += c;
                run_degree += (d + 1) * c;
                run_unique += c;
            }
            unique_sum += run_unique;
            degree_samples.push(run_degree as f64 / run_unique.max(1) as f64);
            let mqe = try_mr_mqe_on_splits(&cluster, &env.splits, mssd.queries(), None, seed)
                .expect("a healthy cluster completes every job");
            let mh = mqe.answer.sharing_histogram(spec.n_ssds);
            let run_shared = mh.iter().skip(1).sum::<usize>();
            let run_mqe_unique = mh.iter().sum::<usize>();
            mqe_shared += run_shared;
            mqe_unique += run_mqe_unique;
            mqe_pct_samples.push(100.0 * run_shared as f64 / run_mqe_unique.max(1) as f64);
        }
        let percents: Vec<f64> = (0..max_n)
            .map(|d| {
                if d < hist_sum.len() {
                    100.0 * hist_sum[d] as f64 / unique_sum.max(1) as f64
                } else {
                    0.0
                }
            })
            .collect();
        let avg_degree = degree_samples.iter().sum::<f64>() / runs.max(1) as f64;
        let mqe_pct = 100.0 * mqe_shared as f64 / mqe_unique.max(1) as f64;
        let _ = writeln!(
            text,
            "{:<6}: avg surveys per individual (CPS) = {:.2};  MQE incidental sharing = {:.1}%",
            spec.name, avg_degree, mqe_pct
        );
        let key = spec.name.to_lowercase();
        metrics.insert(
            format!("sharing.cps_avg_degree.{key}"),
            MetricSeries::new("surveys", degree_samples),
        );
        metrics.insert(
            format!("sharing.mqe_shared_pct.{key}"),
            MetricSeries::new("percent", mqe_pct_samples),
        );
        records.push(Record {
            group: spec.name.to_string(),
            sample_size,
            runs,
            cps_percent_by_degree: percents.clone(),
            cps_avg_degree: avg_degree,
            mqe_shared_percent: mqe_pct,
        });
        columns.push(percents);
    }
    text.push('\n');
    for d in 0..max_n {
        table.row(
            std::iter::once(format!("{}", d + 1))
                .chain(columns.iter().map(|c| format!("{:.0}%", c[d])))
                .collect(),
        );
    }
    text.push_str(&table.render());
    ExpOutput {
        name: "fig6_sharing",
        record_name: "fig6_sharing".to_string(),
        text,
        records_json: serde_json::to_string_pretty(&records).unwrap(),
        metrics,
    }
}
