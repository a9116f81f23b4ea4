//! **Figure 7**: running times of MR-MQE and MR-CPS for the nine
//! (group × sample-scale) configurations on clusters of 1, 5 and 10
//! slave nodes.
//!
//! Paper findings this experiment should reproduce in shape:
//! * near-linear improvement with added slaves;
//! * MR-CPS ≈ 3× MR-MQE (it runs MR-SQE/MQE three times);
//! * ≈ 70% / 28% / 1% of the work in the map / combine / reduce phases.
//!
//! Times are the simulated-cluster makespans of the cost model (see
//! DESIGN.md, substitution 1); real wall-clock on this host is recorded
//! in the JSON records for reference (and stripped from `BENCH_*.json`).

use super::{ExpOutput, Obs};
use crate::artifact::MetricSeries;
use crate::env::BenchEnv;
use crate::Table;
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use stratmr_mapreduce::Cluster;
use stratmr_query::GroupSpec;
use stratmr_sampling::cps::{try_mr_cps_on_splits, CpsConfig};
use stratmr_sampling::mqe::try_mr_mqe_on_splits;

#[derive(Serialize)]
struct Record {
    group: String,
    sample_size: usize,
    slaves: usize,
    mqe_sim_minutes: f64,
    cps_sim_minutes: f64,
    mqe_wall_secs: f64,
    cps_wall_secs: f64,
    map_frac: f64,
    combine_frac: f64,
    reduce_frac: f64,
}

/// Run the Figure 7 running-times experiment.
pub fn run(env: &BenchEnv, obs: &Obs) -> ExpOutput {
    let slaves_configs = [1usize, 5, 10];
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Figure 7 — simulated running times (minutes), population {}\n",
        env.config.population
    );

    let mut table = Table::new(&[
        "config", "MQE[1]", "CPS[1]", "MQE[5]", "CPS[5]", "MQE[10]", "CPS[10]",
    ]);
    let mut records = Vec::new();
    let mut frac_acc = (0.0, 0.0, 0.0, 0usize);
    let mut makespans: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for spec in &GroupSpec::ALL {
        for &scale in &env.config.scales {
            let mssd = env.group(spec, scale, 4000);
            let mut cells = vec![format!("{}~{}", spec.name, scale)];
            for &slaves in &slaves_configs {
                let cluster = obs.cluster(Cluster::new(slaves));
                let mqe = try_mr_mqe_on_splits(&cluster, &env.splits, mssd.queries(), None, 42)
                    .expect("a healthy cluster completes every job");
                let mqe_min = mqe.stats.sim.makespan_us / 60e6;
                let cps =
                    try_mr_cps_on_splits(&cluster, &env.splits, &mssd, CpsConfig::paper(), 42)
                        .expect("solvable");
                let cps_us: f64 = cps.phase_stats.iter().map(|(_, s)| s.sim.makespan_us).sum();
                let cps_min = cps_us / 60e6;
                let cps_wall: f64 = cps.phase_stats.iter().map(|(_, s)| s.wall_secs).sum();
                cells.push(format!("{mqe_min:.1}"));
                cells.push(format!("{cps_min:.1}"));
                makespans
                    .entry(format!("makespan_us.mqe.s{slaves}"))
                    .or_default()
                    .push(mqe.stats.sim.makespan_us);
                makespans
                    .entry(format!("makespan_us.cps.s{slaves}"))
                    .or_default()
                    .push(cps_us);
                // phase-fraction accounting (over all CPS MapReduce jobs)
                let mut sim = stratmr_mapreduce::SimTime::default();
                for (_, s) in &cps.phase_stats {
                    sim.map_us += s.sim.map_us;
                    sim.combine_us += s.sim.combine_us;
                    sim.shuffle_us += s.sim.shuffle_us;
                    sim.reduce_us += s.sim.reduce_us;
                }
                let (m, c, r) = sim.phase_fractions();
                frac_acc.0 += m;
                frac_acc.1 += c;
                frac_acc.2 += r;
                frac_acc.3 += 1;
                records.push(Record {
                    group: spec.name.to_string(),
                    sample_size: scale,
                    slaves,
                    mqe_sim_minutes: mqe_min,
                    cps_sim_minutes: cps_min,
                    mqe_wall_secs: mqe.stats.wall_secs,
                    cps_wall_secs: cps_wall,
                    map_frac: m,
                    combine_frac: c,
                    reduce_frac: r,
                });
            }
            table.row(cells);
        }
    }
    text.push_str(&table.render());
    let n = frac_acc.3 as f64;
    let _ = writeln!(
        text,
        "\naverage phase breakdown (map / combine+shuffle / reduce): \
         {:.0}% / {:.0}% / {:.0}%  (paper: ~70% / 28% / 1%)",
        100.0 * frac_acc.0 / n,
        100.0 * frac_acc.1 / n,
        100.0 * frac_acc.2 / n
    );
    // speedup summary: 1 → 10 slaves
    let by_key = |slaves: usize| -> f64 {
        records
            .iter()
            .filter(|r| r.slaves == slaves)
            .map(|r| r.mqe_sim_minutes + r.cps_sim_minutes)
            .sum()
    };
    let speedup = by_key(1) / by_key(10);
    let _ = writeln!(
        text,
        "aggregate speedup 1 → 10 slaves: {speedup:.1}× (linear would be 10×)"
    );
    let mut metrics: BTreeMap<String, MetricSeries> = makespans
        .into_iter()
        .map(|(k, v)| (k, MetricSeries::new("us", v)))
        .collect();
    metrics.insert(
        "phase_frac.map".to_string(),
        MetricSeries::single("fraction", frac_acc.0 / n),
    );
    metrics.insert(
        "phase_frac.combine".to_string(),
        MetricSeries::single("fraction", frac_acc.1 / n),
    );
    metrics.insert(
        "phase_frac.reduce".to_string(),
        MetricSeries::single("fraction", frac_acc.2 / n),
    );
    metrics.insert(
        "speedup.s1_over_s10".to_string(),
        MetricSeries::single("ratio", speedup),
    );
    ExpOutput {
        name: "fig7_running_times",
        record_name: "fig7_running_times".to_string(),
        text,
        records_json: serde_json::to_string_pretty(&records).unwrap(),
        metrics,
    }
}
