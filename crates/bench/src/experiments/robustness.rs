//! **Extended experiment**: running times under cluster perturbations.
//!
//! The paper evaluates on a healthy homogeneous cluster; real Hadoop
//! fleets see stragglers, task failures and node losses. This
//! experiment repeats the Figure 7 measurement for the Medium group
//! under five conditions — healthy, one straggler at one-third speed,
//! 10% task-failure rate with retries, a node crash that loses
//! completed map outputs, and the same crash with a straggler and
//! speculative execution enabled — and reports the simulated makespans
//! together with recovery metrics: wasted-work fraction, re-executed
//! map tasks and speculation win rate. Results are **identical
//! samples** in all conditions (retries, re-execution and speculative
//! backups re-run deterministic tasks); only time and waste change.
//!
//! The fault plan is derived from `STRATMR_FAULT_SEED`, falling back to
//! a fixed default seed, so the artifact is reproducible bit-for-bit
//! for a given seed.

use super::{ExpOutput, Obs};
use crate::artifact::MetricSeries;
use crate::env::BenchEnv;
use crate::Table;
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use stratmr_mapreduce::{Cluster, FaultPlan};
use stratmr_query::GroupSpec;
use stratmr_sampling::mqe::try_mr_mqe_on_splits;

/// Fault seed used when `STRATMR_FAULT_SEED` is unset.
const DEFAULT_FAULT_SEED: u64 = 0xFA17;

#[derive(Serialize)]
struct Record {
    condition: String,
    slaves: usize,
    sim_minutes: f64,
    map_retries: u64,
    reduce_retries: u64,
    map_reexecutions: u64,
    speculative_attempts: u64,
    speculation_wins: u64,
    wasted_frac: f64,
    answers_identical_to_healthy: bool,
}

/// Run the cluster-perturbation robustness experiment.
pub fn run(env: &BenchEnv, obs: &Obs) -> ExpOutput {
    let scale = env.config.scales[env.config.scales.len() / 2];
    let mssd = env.group(&GroupSpec::MEDIUM, scale, 4100);
    let fault_seed = env.config.fault_seed.unwrap_or(DEFAULT_FAULT_SEED);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Cluster-perturbation robustness — MR-MQE, Medium group, sample {scale}, \
         population {}, fault seed {fault_seed:#x}\n",
        env.config.population
    );

    let mut table = Table::new(&[
        "condition",
        "slaves",
        "time (min)",
        "retries",
        "reexec",
        "spec w/l",
        "wasted",
        "same answer",
    ]);
    let mut records = Vec::new();
    let mut metrics = BTreeMap::new();
    for &slaves in &[5usize, 10] {
        // Probe run: the healthy answer anchors the bit-identity check
        // and its makespan anchors the crash time. 80% of the healthy
        // makespan falls after the first map wave completes but before
        // the shuffle horizon, so the crash genuinely loses completed
        // map outputs and forces re-execution (map waves fill the early
        // ~90% of the job; the reduce tail is about one task long).
        let healthy = try_mr_mqe_on_splits(
            &obs.cluster(Cluster::new(slaves)),
            &env.splits,
            mssd.queries(),
            None,
            77,
        )
        .expect("a healthy cluster completes every job");
        // Crash only nodes that home at least one input split.
        let crash_node = (fault_seed as usize) % slaves.min(env.config.machines);
        let crash_at = healthy.stats.sim.makespan_us * 0.8;
        let crash_plan = FaultPlan::new().crash(crash_node, crash_at);
        let recovery_plan = crash_plan.clone().slow((crash_node + 1) % slaves, 2.5);
        let conditions: Vec<(&str, &str, Cluster)> = vec![
            ("healthy", "healthy", obs.cluster(Cluster::new(slaves))),
            (
                "one straggler (3× slow)",
                "straggler",
                obs.cluster(
                    Cluster::new(slaves).with_fault_plan(FaultPlan::new().slow(slaves - 1, 3.0)),
                ),
            ),
            ("10% task failures", "failures", {
                let flaky = (0..slaves).fold(FaultPlan::new(), |plan, m| plan.flaky(m, 0.10));
                obs.cluster(Cluster::new(slaves).with_fault_plan(flaky))
            }),
            (
                "node crash (map outputs lost)",
                "crash",
                obs.cluster(Cluster::new(slaves).with_fault_plan(crash_plan)),
            ),
            (
                "crash + straggler, speculation",
                "recovery",
                obs.cluster(
                    Cluster::new(slaves)
                        .with_fault_plan(recovery_plan)
                        .with_speculation(1.5)
                        .with_retry_backoff(250_000.0),
                ),
            ),
        ];
        for (name, key, cluster) in conditions {
            let run = try_mr_mqe_on_splits(&cluster, &env.splits, mssd.queries(), None, 77)
                .expect("every robustness condition leaves a healthy machine");
            let same = run.answer == healthy.answer;
            let stats = &run.stats;
            let retries = stats.map_task_retries + stats.reduce_task_retries;
            let busy = stats.sim.map_us + stats.sim.combine_us + stats.sim.reduce_us;
            let wasted_frac = if busy > 0.0 {
                stats.wasted_us / busy
            } else {
                0.0
            };
            let spec_win_rate = if stats.speculative_attempts > 0 {
                stats.speculation_wins as f64 / stats.speculative_attempts as f64
            } else {
                0.0
            };
            table.row(vec![
                name.to_string(),
                slaves.to_string(),
                format!("{:.2}", stats.sim.makespan_us / 60e6),
                retries.to_string(),
                stats.map_task_reexecutions.to_string(),
                format!("{}/{}", stats.speculation_wins, stats.speculative_attempts),
                format!("{:.1}%", wasted_frac * 100.0),
                if same { "yes" } else { "NO" }.to_string(),
            ]);
            metrics.insert(
                format!("makespan_us.{key}.s{slaves}"),
                MetricSeries::single("us", stats.sim.makespan_us),
            );
            metrics.insert(
                format!("retries.{key}.s{slaves}"),
                MetricSeries::single("count", retries as f64),
            );
            metrics.insert(
                format!("map_reexec.{key}.s{slaves}"),
                MetricSeries::single("count", stats.map_task_reexecutions as f64),
            );
            metrics.insert(
                format!("spec_win_rate.{key}.s{slaves}"),
                MetricSeries::single("ratio", spec_win_rate),
            );
            metrics.insert(
                format!("wasted_frac.{key}.s{slaves}"),
                MetricSeries::single("ratio", wasted_frac),
            );
            records.push(Record {
                condition: name.to_string(),
                slaves,
                sim_minutes: stats.sim.makespan_us / 60e6,
                map_retries: stats.map_task_retries,
                reduce_retries: stats.reduce_task_retries,
                map_reexecutions: stats.map_task_reexecutions,
                speculative_attempts: stats.speculative_attempts,
                speculation_wins: stats.speculation_wins,
                wasted_frac,
                answers_identical_to_healthy: same,
            });
        }
    }
    text.push_str(&table.render());
    assert!(
        records.iter().all(|r| r.answers_identical_to_healthy),
        "perturbations must never change the sample"
    );
    assert!(
        records
            .iter()
            .filter(|r| r.condition.contains("crash"))
            .all(|r| r.map_reexecutions > 0),
        "a mid-job node crash must force map re-execution"
    );
    let _ = writeln!(
        text,
        "\nPerturbations slow the cluster but never change the sample: failed\n\
         tasks re-run with the same task seed, and map outputs lost to a node\n\
         crash are re-executed elsewhere before the shuffle completes\n\
         (deterministic recovery, as in Hadoop's re-execution of\n\
         deterministic tasks). Speculative backups trade wasted work for\n\
         makespan; the wasted column is the fraction of simulated busy time\n\
         that produced no surviving output."
    );
    ExpOutput {
        name: "robustness",
        record_name: "robustness".to_string(),
        text,
        records_json: serde_json::to_string_pretty(&records).unwrap(),
        metrics,
    }
}
