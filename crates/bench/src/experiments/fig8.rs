//! **Figure 8**: average time spent formulating and solving the LP in
//! MR-CPS, per query group and sample scale (log scale in the paper).
//!
//! Paper: always in the order of seconds — insignificant next to the
//! MapReduce phases, and independent of the dataset size (it depends
//! only on the query-group size and `|[[Q]]*|`).
//!
//! Wall-clock LP times are host-dependent; they stay in the text report
//! and the legacy records but never enter `BENCH_*.json`. The artifact
//! carries the host-independent LP shape instead: variables,
//! constraints and `|[[Q]]*|` per configuration.

use super::{ExpOutput, Obs};
use crate::artifact::MetricSeries;
use crate::env::BenchEnv;
use crate::{fmt_duration_s, Table};
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use stratmr_mapreduce::Cluster;
use stratmr_query::GroupSpec;
use stratmr_sampling::cps::{try_mr_cps_on_splits, CpsConfig};

#[derive(Serialize)]
struct Record {
    group: String,
    sample_size: usize,
    runs: usize,
    avg_formulate_secs: f64,
    avg_solve_secs: f64,
    avg_variables: f64,
    avg_constraints: f64,
    avg_relevant_selections: f64,
    lp_share_of_total_wall: f64,
}

/// Run the Figure 8 LP-times experiment.
pub fn run(env: &BenchEnv, obs: &Obs) -> ExpOutput {
    let runs = env.config.runs.clamp(1, 10);
    let cluster = obs.cluster(Cluster::new(env.config.machines));
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Figure 8 — LP formulation + solving time in MR-CPS \
         (population {}, {} runs per point)\n",
        env.config.population, runs
    );

    let mut table = Table::new(&[
        "config",
        "formulate",
        "solve",
        "vars",
        "constraints",
        "|[[Q]]*|",
        "share of job",
    ]);
    let mut records = Vec::new();
    let mut metrics = BTreeMap::new();
    for spec in &GroupSpec::ALL {
        let key = spec.name.to_lowercase();
        let mut variables: Vec<f64> = Vec::new();
        let mut constraints: Vec<f64> = Vec::new();
        let mut relevant: Vec<f64> = Vec::new();
        for &scale in &env.config.scales {
            let mut f_sum = 0.0;
            let mut s_sum = 0.0;
            let mut v_sum = 0.0;
            let mut c_sum = 0.0;
            let mut r_sum = 0.0;
            let mut share_sum = 0.0;
            for run in 0..runs {
                let mssd = env.group(spec, scale, 3000 + run as u64);
                let cps = try_mr_cps_on_splits(
                    &cluster,
                    &env.splits,
                    &mssd,
                    CpsConfig::paper(),
                    900 + run as u64,
                )
                .expect("solvable");
                f_sum += cps.timings.formulate_secs;
                s_sum += cps.timings.solve_secs;
                v_sum += cps.variables as f64;
                c_sum += cps.constraints as f64;
                r_sum += cps.relevant_selections as f64;
                variables.push(cps.variables as f64);
                constraints.push(cps.constraints as f64);
                relevant.push(cps.relevant_selections as f64);
                let lp = cps.timings.formulate_secs + cps.timings.solve_secs;
                let sim_total: f64 = cps
                    .phase_stats
                    .iter()
                    .map(|(_, st)| st.sim.makespan_secs())
                    .sum();
                share_sum += lp / (lp + sim_total);
            }
            let n = runs as f64;
            table.row(vec![
                format!("{}~{}", spec.name, scale),
                fmt_duration_s(f_sum / n),
                fmt_duration_s(s_sum / n),
                format!("{:.0}", v_sum / n),
                format!("{:.0}", c_sum / n),
                format!("{:.0}", r_sum / n),
                format!("{:.3}%", 100.0 * share_sum / n),
            ]);
            records.push(Record {
                group: spec.name.to_string(),
                sample_size: scale,
                runs,
                avg_formulate_secs: f_sum / n,
                avg_solve_secs: s_sum / n,
                avg_variables: v_sum / n,
                avg_constraints: c_sum / n,
                avg_relevant_selections: r_sum / n,
                lp_share_of_total_wall: share_sum / n,
            });
        }
        metrics.insert(
            format!("lp.variables.{key}"),
            MetricSeries::new("count", variables),
        );
        metrics.insert(
            format!("lp.constraints.{key}"),
            MetricSeries::new("count", constraints),
        );
        metrics.insert(
            format!("lp.relevant_selections.{key}"),
            MetricSeries::new("count", relevant),
        );
    }
    text.push_str(&table.render());
    let _ = writeln!(
        text,
        "\nThe LP share of total (simulated) job time stays ≪ 1%, matching the\n\
         paper's finding that \"the LP solver has almost no effect on the\n\
         running times\" and one node suffices for it."
    );
    ExpOutput {
        name: "fig8_lp_times",
        record_name: "fig8_lp_times".to_string(),
        text,
        records_json: serde_json::to_string_pretty(&records).unwrap(),
        metrics,
    }
}
