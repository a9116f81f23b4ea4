//! Plan EXPLAIN for MR-CPS plus the sample-quality audit of one
//! standard MSSD run, as the `explain` runner prints it.
//!
//! [`run_explain`] runs the medium paper-style query group once with
//! explain capture and a fresh audit registry; `explain --explain
//! <out.json>` writes the assembled artifact:
//!
//! ```text
//! {
//!   "meta": { ...common ArtifactMeta header... },
//!   "plan": { ...PlanExplain: programs, sharing, gap... },
//!   "quality": { ...QualityReport: per-stratum trails... }
//! }
//! ```
//!
//! Everything in the artifact is a pure function of code, seed and
//! configuration — the plan carries no timings and the quality report
//! only counter-derived statistics — so two runs at one commit are
//! byte-identical (the `meta.host` subobject excepted, as everywhere).

use crate::env::BenchEnv;
use crate::meta::ArtifactMeta;
use stratmr_mapreduce::Cluster;
use stratmr_query::GroupSpec;
use stratmr_sampling::cps::CpsConfig;
use stratmr_sampling::{try_mr_cps_on_splits, PlanExplain, QualityReport};
use stratmr_telemetry::{json, Layout, Registry};

/// Seed of the explained query group — the first run of the optimality
/// experiment, so the EXPLAIN output describes a plan the experiment
/// actually measures.
pub(crate) const EXPLAIN_GROUP_SEED: u64 = 6000;

/// Seed of the explained CPS run (ditto).
pub(crate) const EXPLAIN_RUN_SEED: u64 = 800;

/// One captured EXPLAIN: the plan, the audit report of the same run,
/// and the assembled artifact JSON.
pub struct ExplainOutput {
    /// The captured plan.
    pub plan: PlanExplain,
    /// The audit ledger of the explained run.
    pub report: QualityReport,
    /// The rendered artifact (see module docs).
    pub json: String,
}

impl ExplainOutput {
    /// The combined text report: plan sections, then the audit tables.
    pub fn render_text(&self) -> String {
        let mut out = self.plan.render_text();
        out.push_str(&self.report.render_text());
        out
    }
}

/// Run the standard MSSD group once with explain capture and a fresh
/// audit registry, and assemble the artifact stamped with `meta`.
pub fn run_explain(env: &BenchEnv, config: CpsConfig, meta: &ArtifactMeta) -> ExplainOutput {
    let registry = Registry::new();
    let cluster = Cluster::new(env.config.machines).with_telemetry(registry.clone());
    let sample_size = env.config.scales[env.config.scales.len() / 2];
    let mssd = env.group(&GroupSpec::MEDIUM, sample_size, EXPLAIN_GROUP_SEED);
    let config = CpsConfig {
        explain: true,
        ..config
    };
    let plan = try_mr_cps_on_splits(&cluster, &env.splits, &mssd, config, EXPLAIN_RUN_SEED)
        .expect("the standard explain group is solvable")
        .explain
        .expect("explain capture was requested");
    let report = QualityReport::from_snapshot(&registry.snapshot());
    let json = json::document(json::INDENT, |w| {
        meta.write_field(w);
        w.key("plan")
            .object(Layout::Lines, |w| plan.write_fields(w));
        w.key("quality")
            .object(Layout::Lines, |w| report.write_fields(w));
    });
    ExplainOutput { plan, report, json }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::BenchConfig;
    use stratmr_sampling::SolverKind;

    fn tiny_env() -> BenchEnv {
        BenchEnv::new(BenchConfig {
            population: 500,
            runs: 1,
            scales: vec![30],
            machines: 4,
            splits: 8,
            uniform: false,
            fault_seed: None,
        })
    }

    #[test]
    fn explain_artifact_is_byte_deterministic() {
        let env = tiny_env();
        let meta = ArtifactMeta::fixed_for_tests("explain", crate::env::DATA_SEED, &env.config);
        let a = run_explain(&env, CpsConfig::paper(), &meta);
        let b = run_explain(&env, CpsConfig::paper(), &meta);
        assert_eq!(a.json, b.json);
        assert!(
            a.json.starts_with("{\n  \"meta\": {\"schema_version\""),
            "{}",
            a.json
        );
        assert!(a.json.contains("\n  \"plan\": {"), "{}", a.json);
        assert!(a.json.contains("\n  \"quality\": {"), "{}", a.json);
        // the quality report audits the explained run's strata
        assert!(!a.report.trails.is_empty());
        assert!(a.plan.optimality_gap() >= 0.0);
    }

    #[test]
    fn exact_solver_reports_zero_gap() {
        let env = tiny_env();
        let meta = ArtifactMeta::fixed_for_tests("explain", crate::env::DATA_SEED, &env.config);
        let out = run_explain(
            &env,
            CpsConfig {
                solver: SolverKind::Ip,
                ..CpsConfig::paper()
            },
            &meta,
        );
        assert_eq!(out.plan.optimality_gap(), 0.0);
        assert!(
            out.json.contains("\"optimality_gap\": 0.000000"),
            "{}",
            out.json
        );
        let text = out.render_text();
        assert!(text.contains("plan explain (ip solver"), "{text}");
        assert!(text.contains("trails:"), "{text}");
    }
}
