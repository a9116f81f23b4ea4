//! **§6.2.2 optimality analysis**: how far is MR-CPS from the true
//! optimum?
//!
//! The paper bounds the gap through the residual answers: with
//! `C_LP ≤ C_IP ≤ C_A`, the answer cost exceeds the IP optimum by at
//! most the LP-to-answer gap, and residual answers were ≤ 5.5% of the
//! answers, so MR-CPS costs at most ~5.5% more than optimal.
//!
//! This experiment measures, over repeated runs:
//! * the residual fraction;
//! * the ordering `C_LP ≤ C_IP ≤ C_A` directly (IP solved exactly by
//!   branch and bound);
//! * the realized relative gap `(C_A − C_IP) / C_A`.

use super::{ExpOutput, Obs};
use crate::artifact::MetricSeries;
use crate::env::BenchEnv;
use crate::Table;
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use stratmr_mapreduce::Cluster;
use stratmr_query::GroupSpec;
use stratmr_sampling::cps::{try_mr_cps_on_splits, CpsConfig, SolverKind};

#[derive(Serialize)]
struct Record {
    group: String,
    sample_size: usize,
    runs: usize,
    avg_residual_fraction: f64,
    max_residual_fraction: f64,
    avg_c_lp: f64,
    avg_c_ip: f64,
    avg_c_a: f64,
    avg_gap_percent: f64,
    ordering_violations: usize,
}

/// Run the optimality-gap experiment.
pub fn run(env: &BenchEnv, obs: &Obs) -> ExpOutput {
    let runs = env.config.runs.clamp(1, 10);
    let sample_size = env.config.scales[env.config.scales.len() / 2];
    let cluster = obs.cluster(Cluster::new(env.config.machines));
    let mut text = String::new();
    let _ = writeln!(
        text,
        "§6.2.2 — optimality of MR-CPS (population {}, sample {}, {} runs)\n",
        env.config.population, sample_size, runs
    );

    let mut table = Table::new(&[
        "group",
        "avg residual",
        "max residual",
        "C_LP",
        "C_IP",
        "C_A",
        "gap (C_A−C_IP)/C_A",
    ]);
    let mut records = Vec::new();
    let mut metrics = BTreeMap::new();
    for spec in &GroupSpec::ALL {
        let mut res_samples = Vec::with_capacity(runs);
        let mut gap_samples = Vec::with_capacity(runs);
        let mut lp_sum = 0.0;
        let mut ip_sum = 0.0;
        let mut ca_sum = 0.0;
        let mut violations = 0usize;
        for run in 0..runs {
            let mssd = env.group(spec, sample_size, 6000 + run as u64);
            let seed = 800 + run as u64;
            let lp_run =
                try_mr_cps_on_splits(&cluster, &env.splits, &mssd, CpsConfig::paper(), seed)
                    .expect("LP solvable");
            let ip_run = try_mr_cps_on_splits(
                &cluster,
                &env.splits,
                &mssd,
                CpsConfig {
                    solver: SolverKind::Ip,
                    ..CpsConfig::paper()
                },
                seed,
            )
            .expect("IP solvable");
            let c_lp = lp_run.solver_objective;
            let c_ip = ip_run.solver_objective;
            let c_a = lp_run.cost;
            if !(c_lp <= c_ip + 1e-6 && c_ip <= c_a + 1e-6) {
                violations += 1;
            }
            let frac =
                lp_run.residual_selections as f64 / lp_run.answer.total_selections().max(1) as f64;
            res_samples.push(frac);
            lp_sum += c_lp;
            ip_sum += c_ip;
            ca_sum += c_a;
            gap_samples.push((c_a - c_ip) / c_a.max(1e-9));
        }
        let n = runs as f64;
        let res_sum: f64 = res_samples.iter().sum();
        let res_max = res_samples.iter().cloned().fold(0.0f64, f64::max);
        let gap_sum: f64 = gap_samples.iter().sum();
        table.row(vec![
            spec.name.to_string(),
            format!("{:.2}%", 100.0 * res_sum / n),
            format!("{:.2}%", 100.0 * res_max),
            format!("${:.0}", lp_sum / n),
            format!("${:.0}", ip_sum / n),
            format!("${:.0}", ca_sum / n),
            format!("{:.2}%", 100.0 * gap_sum / n),
        ]);
        let key = spec.name.to_lowercase();
        metrics.insert(
            format!("residual_fraction.{key}"),
            MetricSeries::new("fraction", res_samples.clone()),
        );
        metrics.insert(
            format!("gap_fraction.{key}"),
            MetricSeries::new("fraction", gap_samples),
        );
        metrics.insert(
            format!("ordering_violations.{key}"),
            MetricSeries::single("count", violations as f64),
        );
        records.push(Record {
            group: spec.name.to_string(),
            sample_size,
            runs,
            avg_residual_fraction: res_sum / n,
            max_residual_fraction: res_max,
            avg_c_lp: lp_sum / n,
            avg_c_ip: ip_sum / n,
            avg_c_a: ca_sum / n,
            avg_gap_percent: 100.0 * gap_sum / n,
            ordering_violations: violations,
        });
    }
    text.push_str(&table.render());
    let total_violations: usize = records.iter().map(|r| r.ordering_violations).sum();
    let _ = writeln!(
        text,
        "\nordering C_LP ≤ C_IP ≤ C_A violated in {total_violations} of {} runs \
         (paper bound: residuals ≤ 5.5%)",
        runs * GroupSpec::ALL.len()
    );
    ExpOutput {
        name: "optimality",
        record_name: "optimality".to_string(),
        text,
        records_json: serde_json::to_string_pretty(&records).unwrap(),
        metrics,
    }
}
