//! The `--explain <out.json>` flag: CPS/LP plan EXPLAIN plus the
//! sample-quality audit for one standard MSSD run.
//!
//! A CPS-capable binary (`optimality`, `table2_cost_ratio`,
//! `fig6_sharing`, the dedicated `explain` binary) accepting the flag
//! runs the medium paper-style query group once with explain capture
//! and a fresh audit registry, and writes one artifact:
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

use crate::artifact::indent_after_first_line;
use crate::env::BenchEnv;
use crate::meta::ArtifactMeta;
use std::path::PathBuf;
use stratmr_query::GroupSpec;
use stratmr_sampling::cps::CpsConfig;
use stratmr_sampling::{try_mr_cps_on_splits, PlanExplain, QualityReport};
use stratmr_telemetry::Registry;

/// Seed of the explained query group — the first run of the optimality
/// experiment, so the EXPLAIN output describes a plan the experiment
/// actually measures.
pub const EXPLAIN_GROUP_SEED: u64 = 6000;

/// Seed of the explained CPS run (ditto).
pub const EXPLAIN_RUN_SEED: u64 = 800;

/// An EXPLAIN output path requested on the command line.
pub struct ExplainFile {
    path: PathBuf,
}

/// Parse `--explain <path>` (or `--explain=<path>`) from the process
/// arguments. Returns `None` when the flag is absent; exits with a
/// usage error when the path operand is missing.
pub fn from_args() -> Option<ExplainFile> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--explain" {
            let path = args.next().unwrap_or_else(|| {
                eprintln!("usage: --explain <out.json>");
                std::process::exit(2);
            });
            return Some(ExplainFile { path: path.into() });
        }
        if let Some(p) = a.strip_prefix("--explain=") {
            return Some(ExplainFile { path: p.into() });
        }
    }
    None
}

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
    let cluster = env
        .cluster(env.config.machines)
        .with_telemetry(registry.clone());
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
    let json = render_explain_json(&meta.to_json(), &plan, &report);
    ExplainOutput { plan, report, json }
}

/// Assemble the `{meta, plan, quality}` artifact from its pieces.
pub fn render_explain_json(meta_line: &str, plan: &PlanExplain, report: &QualityReport) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"meta\": ");
    out.push_str(meta_line);
    out.push_str(",\n  \"plan\": ");
    out.push_str(&indent_after_first_line(&plan.to_json(), "  "));
    out.push_str(",\n  \"quality\": ");
    out.push_str(&indent_after_first_line(&report.to_json(None), "  "));
    out.push_str("\n}\n");
    out
}

/// Write the artifact to the requested path (no-op without a file).
/// An unwritable path is reported on stderr and exits with status 1,
/// like the telemetry write path.
pub fn finish(file: Option<ExplainFile>, out: &ExplainOutput) {
    if let Some(f) = file {
        match std::fs::write(&f.path, &out.json) {
            Ok(()) => println!(
                "explain: {} (optimality gap {:.3}%)",
                f.path.display(),
                100.0 * out.plan.optimality_gap()
            ),
            Err(e) => {
                eprintln!("error: cannot write explain to {}: {e}", f.path.display());
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::BenchConfig;

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
        let a = run_explain(&env, CpsConfig::mr_cps(), &meta);
        let b = run_explain(&env, CpsConfig::mr_cps(), &meta);
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
        let out = run_explain(&env, CpsConfig::exact(), &meta);
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
