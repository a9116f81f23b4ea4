//! The shared experiment runner behind every bench binary and the
//! `bench_suite` aggregator.
//!
//! Each submodule reproduces one artifact of the paper's evaluation
//! (§6) as a pure function `run(&BenchEnv, &Obs) -> ExpOutput`: it
//! renders its human-readable report into [`ExpOutput::text`], collects
//! machine-readable per-row records, and exposes named raw sample sets
//! ([`MetricSeries`]) for the regression comparator. The thin binaries
//! in `src/bin/` and the `bench_suite` runner differ only in how they
//! construct the [`Obs`] context and where they write the outputs —
//! the experiment logic itself exists exactly once.
//!
//! # Determinism
//!
//! In suite mode ([`Obs::full`]) every cluster gets a fresh telemetry
//! [`Registry`] and a [`TraceSink`]. The sinks only observe: simulated
//! times are a function of record and byte counts, so every metric an
//! experiment emits is a pure function of code, seed and configuration
//! whether or not it is traced. That is what makes `BENCH_*.json`
//! byte-identical across runs at one commit.

pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod optimality;
pub mod robustness;
pub mod table1;
pub mod table2;

use crate::artifact::{BenchArtifact, MetricSeries, QualityBlock, StageTotals};
use crate::env::{BenchEnv, DATA_SEED};
use crate::meta::ArtifactMeta;
use std::collections::BTreeMap;
use stratmr_mapreduce::Cluster;
use stratmr_telemetry::{Registry, TraceSink};

/// Observability context threaded into an experiment run: `cluster`
/// attaches whatever sinks are configured to a base cluster.
#[derive(Clone, Default)]
pub struct Obs {
    /// Telemetry registry collecting counters/histograms/spans.
    pub registry: Option<Registry>,
    /// Per-task trace sink collecting one `JobTrace` per MR job.
    pub trace: Option<TraceSink>,
}

impl Obs {
    /// Fresh registry and trace sink — suite mode.
    pub fn full() -> Self {
        Obs {
            registry: Some(Registry::new()),
            trace: Some(TraceSink::new()),
        }
    }

    /// Attach the configured sinks to `base`.
    pub fn cluster(&self, base: Cluster) -> Cluster {
        let with_tel = match &self.registry {
            Some(r) => base.with_telemetry(r.clone()),
            None => base,
        };
        match &self.trace {
            Some(t) => with_tel.with_trace(t.clone()),
            None => with_tel,
        }
    }
}

/// Everything one experiment run produced.
pub struct ExpOutput {
    /// Stable experiment id (`fig7_running_times`, …) — names the
    /// `BENCH_<name>.json` artifact.
    pub name: &'static str,
    /// Name of the legacy `target/experiments/<record_name>.json` file
    /// (differs from `name` only for dataset variants).
    pub record_name: String,
    /// The human-readable report, as the binaries print it.
    pub text: String,
    /// Per-row records as a pretty JSON array.
    pub records_json: String,
    /// Named raw sample sets for the regression comparator.
    pub metrics: BTreeMap<String, MetricSeries>,
}

/// One entry of the experiment registry.
pub struct Experiment {
    /// Stable experiment id.
    pub name: &'static str,
    /// The runner.
    pub run: fn(&BenchEnv, &Obs) -> ExpOutput,
}

/// Every experiment of the evaluation, in paper order. `bench_suite`
/// runs them all; `bench_suite <name>…` selects a subset.
pub const ALL: &[Experiment] = &[
    Experiment {
        name: "table1_dataset",
        run: table1::run,
    },
    Experiment {
        name: "table2_cost_ratio",
        run: table2::run,
    },
    Experiment {
        name: "fig6_sharing",
        run: fig6::run,
    },
    Experiment {
        name: "fig7_running_times",
        run: fig7::run,
    },
    Experiment {
        name: "fig8_lp_times",
        run: fig8::run,
    },
    Experiment {
        name: "optimality",
        run: optimality::run,
    },
    Experiment {
        name: "robustness",
        run: robustness::run,
    },
];

/// Run one experiment in suite mode and assemble its `BENCH_*.json`
/// artifact: metrics from the run, `counter.*` metrics from the fresh
/// telemetry registry, critical-path stage totals from the trace sink,
/// the `quality` block condensed from the sampling audit ledger, and
/// records with host-dependent fields stripped (wall-clock values
/// never enter the artifact — that is what keeps it byte-stable).
pub fn run_to_artifact(
    exp: &Experiment,
    env: &BenchEnv,
    meta: ArtifactMeta,
) -> (ExpOutput, BenchArtifact) {
    let obs = Obs::full();
    let out = (exp.run)(env, &obs);
    let trace = obs.trace.as_ref().expect("suite mode traces");
    let snapshot = obs
        .registry
        .as_ref()
        .expect("suite mode registry")
        .snapshot();
    let report = stratmr_sampling::QualityReport::from_snapshot(&snapshot);
    let mut artifact = BenchArtifact {
        meta,
        stages: StageTotals::from_traces(&trace.jobs()),
        metrics: out.metrics.clone(),
        quality: QualityBlock::from_report(&report, mean_optimality_gap(&out.metrics)),
        records_json: strip_host_fields_from_records(&out.records_json),
    };
    artifact.metrics.insert(
        "trace.jobs".to_string(),
        MetricSeries::single("count", trace.len() as f64),
    );
    artifact.add_counters(&snapshot);
    (out, artifact)
}

/// The experiment's mean relative optimality gap: the mean over every
/// `gap_fraction.*` metric's samples, `None` when the experiment solved
/// no constraint programs (no such metric emitted).
fn mean_optimality_gap(metrics: &BTreeMap<String, MetricSeries>) -> Option<f64> {
    let gaps: Vec<f64> = metrics
        .iter()
        .filter(|(name, _)| name.starts_with("gap_fraction."))
        .flat_map(|(_, series)| series.samples.iter().copied())
        .collect();
    if gaps.is_empty() {
        None
    } else {
        Some(gaps.iter().sum::<f64>() / gaps.len() as f64)
    }
}

/// [`run_to_artifact`] with a freshly captured meta header.
pub fn run_to_artifact_captured(exp: &Experiment, env: &BenchEnv) -> (ExpOutput, BenchArtifact) {
    let meta = ArtifactMeta::capture(exp.name, DATA_SEED, &env.config);
    run_to_artifact(exp, env, meta)
}

/// Drop host-dependent fields (keys containing `wall` or ending in
/// `_secs`) from a pretty JSON records array, recursively, and
/// re-render. Wall-clock measurements stay in the legacy
/// `target/experiments/` records but never enter `BENCH_*.json`.
pub(crate) fn strip_host_fields_from_records(records_json: &str) -> String {
    fn strip(v: serde::Value) -> serde::Value {
        match v {
            serde::Value::Object(fields) => serde::Value::Object(
                fields
                    .into_iter()
                    .filter(|(k, _)| !k.contains("wall") && !k.ends_with("_secs"))
                    .map(|(k, v)| (k, strip(v)))
                    .collect(),
            ),
            serde::Value::Array(items) => {
                serde::Value::Array(items.into_iter().map(strip).collect())
            }
            other => other,
        }
    }
    let parsed = match serde_json::parse_value_str(records_json) {
        Ok(v) => v,
        Err(_) => return records_json.to_string(),
    };
    serde_json::to_string_pretty(&strip(parsed)).unwrap_or_else(|_| records_json.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_full_attaches_sinks() {
        let obs = Obs::full();
        let cluster = obs.cluster(Cluster::new(2));
        // registry and trace actually collect
        use stratmr_mapreduce::{make_splits, Emitter, Job, TaskCtx};
        struct Count;
        impl Job for Count {
            type Input = u64;
            type Key = u8;
            type MapOut = u64;
            type ReduceOut = u64;
            fn map(&self, _c: &TaskCtx, r: &u64, out: &mut Emitter<u8, u64>) {
                out.emit((*r % 2) as u8, 1);
            }
            fn reduce(&self, _c: &TaskCtx, _k: &u8, v: Vec<u64>) -> u64 {
                v.into_iter().sum()
            }
        }
        cluster
            .try_run(&Count, &make_splits((0..10).collect(), 2, 2), 1)
            .unwrap();
        assert_eq!(obs.trace.as_ref().unwrap().len(), 1);
        assert!(obs.registry.as_ref().unwrap().snapshot().counter("mr.jobs") > 0);
    }

    #[test]
    fn tracing_does_not_change_experiment_metrics() {
        let env = BenchEnv::new(crate::BenchConfig {
            population: 1_000,
            runs: 1,
            scales: vec![20],
            machines: 2,
            splits: 4,
            ..crate::BenchConfig::default()
        });
        let untraced = Obs {
            registry: Some(Registry::new()),
            trace: None,
        };
        let a = fig7::run(&env, &untraced);
        let b = fig7::run(&env, &Obs::full());
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn host_fields_are_stripped_recursively() {
        let json = r#"[
  {
    "sim_minutes": 3.5,
    "mqe_wall_secs": 1.25,
    "formulate_secs": 0.1,
    "nested": {
      "wall_secs": 2.0,
      "keep": 1
    }
  }
]"#;
        let stripped = strip_host_fields_from_records(json);
        assert!(!stripped.contains("wall"), "{stripped}");
        assert!(!stripped.contains("formulate_secs"), "{stripped}");
        assert!(stripped.contains("sim_minutes"), "{stripped}");
        assert!(stripped.contains("keep"), "{stripped}");
    }
}
