//! Noise-aware diffing of two `BENCH_*.json` artifact sets.
//!
//! [`compare`] pairs artifacts by experiment name and judges every
//! shared metric with two gates that must *both* trip before a change
//! counts as a regression:
//!
//! 1. **Relative delta** — the mean moved against the metric's good
//!    direction by more than the threshold (default 10%, overridable
//!    via `BENCH_COMPARE_THRESHOLD`).
//! 2. **Mann–Whitney U** — when both sides carry ≥ [`MIN_SAMPLES`] raw
//!    samples *and* the sample counts make z_crit attainable at all
//!    (full separation of two n-sample sets caps the achievable z),
//!    the shift must also be statistically significant (|z| > z_crit,
//!    default 3). Small-sample and single-sample metrics (deterministic
//!    counters) skip this gate: simulated times and counters carry no
//!    noise, so the delta alone decides.
//!
//! Two more checks reuse the repo's statistical helpers:
//!
//! * the **critical-path stage mix** (setup/map/shuffle/reduce shares)
//!   is screened with the chi-square goodness-of-fit test, and the
//!   stage that moved most is named next to any regression;
//! * the **task retry rate** is screened with the binomial acceptance
//!   bound against the baseline rate.
//!
//! Schema v2 artifacts additionally carry a `quality` block, gated in
//! `quality_alerts`: every current stratum's realized sampling
//! fraction must stay within the binomial acceptance bound of its
//! requested `f` (an absolute check — a biased sampler is broken no
//! matter what the baseline did), the optimality gap can never be
//! negative (the answer cost is an upper bound on the solver
//! objective), and the gap must not inflate ≥ 20% over the baseline.
//!
//! Mismatched schema versions or scale configurations are an error
//! (the caller exits 2), not a regression: comparing a pop=100 000 run
//! against a pop=2 000 baseline would gate on nonsense.

use crate::artifact::BenchArtifact;
use crate::report::Table;
use std::fmt::Write as _;
use stratmr_sampling::stats::{binomial_within_bound, chi2_gof_ok, mann_whitney_z};

/// Minimum per-side sample count for the Mann–Whitney gate to apply.
pub const MIN_SAMPLES: usize = 4;

/// Comparison thresholds.
#[derive(Clone, Copy, Debug)]
pub struct CompareOpts {
    /// Relative mean shift (in the bad direction) that flags a metric.
    pub threshold: f64,
    /// Mann–Whitney z-score a flagged shift must also exceed when both
    /// sides have ≥ [`MIN_SAMPLES`] samples.
    pub z_crit: f64,
}

impl Default for CompareOpts {
    fn default() -> Self {
        CompareOpts {
            threshold: 0.10,
            z_crit: 3.0,
        }
    }
}

impl CompareOpts {
    /// Defaults, with the threshold overridable via the
    /// `BENCH_COMPARE_THRESHOLD` environment variable (a fraction,
    /// e.g. `0.15`).
    pub fn from_env() -> Self {
        let mut opts = Self::default();
        if let Some(t) = std::env::var("BENCH_COMPARE_THRESHOLD")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
        {
            if t > 0.0 {
                opts.threshold = t;
            }
        }
        opts
    }
}

/// Verdict for one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the threshold (or not significant).
    Ok,
    /// Moved in the good direction past the threshold.
    Improved,
    /// Moved in the bad direction past the threshold (and past the
    /// significance gate where it applies).
    Regressed,
}

/// One shared metric, judged.
#[derive(Clone, Debug)]
pub struct MetricDelta {
    /// Metric name.
    pub metric: String,
    /// Unit tag from the current artifact.
    pub unit: String,
    /// Baseline mean.
    pub base_mean: f64,
    /// Current mean.
    pub cur_mean: f64,
    /// Signed relative shift `(cur − base) / |base|`.
    pub rel_delta: f64,
    /// Mann–Whitney z of current vs. baseline samples (0 when either
    /// side has < 2 samples).
    pub z: f64,
    /// The judgement.
    pub verdict: Verdict,
}

/// One experiment's comparison.
#[derive(Clone, Debug)]
pub struct ExperimentReport {
    /// Experiment name.
    pub experiment: String,
    /// Judged metrics, in name order.
    pub deltas: Vec<MetricDelta>,
    /// Critical-path stage whose total moved most (signed µs delta),
    /// for attributing a makespan regression.
    pub stage_moved: Option<(String, f64)>,
    /// Chi-square screen on the critical-path stage mix.
    pub stage_mix_drifted: bool,
    /// Binomial screen on the task retry rate, when it failed.
    pub retry_alert: Option<String>,
    /// Sample-quality gate failures (realized-`f` bias, optimality-gap
    /// regressions), empty when the quality block passes.
    pub quality_alerts: Vec<String>,
    /// Metrics present in the baseline but missing now.
    pub missing_metrics: Vec<String>,
    /// Metrics new in the current set (informational).
    pub new_metrics: Vec<String>,
}

/// The full comparison.
#[derive(Clone, Debug, Default)]
pub struct CompareReport {
    /// Per-experiment results, in experiment order.
    pub experiments: Vec<ExperimentReport>,
    /// Experiments present on only one side (name, which side).
    pub unpaired: Vec<(String, &'static str)>,
}

impl CompareReport {
    /// `(experiment, description)` for every regression, in order.
    pub(crate) fn regressions(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for exp in &self.experiments {
            for d in &exp.deltas {
                if d.verdict == Verdict::Regressed {
                    let stage = exp
                        .stage_moved
                        .as_ref()
                        .map(|(s, us)| {
                            format!("; critical-path stage moved most: {s} ({us:+.0}µs)")
                        })
                        .unwrap_or_default();
                    out.push((
                        exp.experiment.clone(),
                        format!(
                            "{}: {} → {} ({:+.1}%, z={:+.2}){stage}",
                            d.metric,
                            fmt_value(d.base_mean),
                            fmt_value(d.cur_mean),
                            100.0 * d.rel_delta,
                            d.z
                        ),
                    ));
                }
            }
            if let Some(alert) = &exp.retry_alert {
                out.push((exp.experiment.clone(), alert.clone()));
            }
            for alert in &exp.quality_alerts {
                out.push((exp.experiment.clone(), alert.clone()));
            }
            for m in &exp.missing_metrics {
                out.push((exp.experiment.clone(), format!("metric disappeared: {m}")));
            }
        }
        out
    }

    /// Whether anything regressed.
    pub fn has_regressions(&self) -> bool {
        !self.regressions().is_empty()
    }

    /// Render the per-metric table plus a verdict summary.
    pub fn render(&self, opts: &CompareOpts) -> String {
        let mut table = Table::new(&["experiment", "metric", "base", "current", "Δ%", "z", ""]);
        let mut shown = 0usize;
        let mut total = 0usize;
        for exp in &self.experiments {
            for d in &exp.deltas {
                total += 1;
                let interesting =
                    d.verdict != Verdict::Ok || d.rel_delta.abs() > opts.threshold / 2.0;
                if !interesting {
                    continue;
                }
                shown += 1;
                table.row(vec![
                    exp.experiment.clone(),
                    d.metric.clone(),
                    fmt_value(d.base_mean),
                    fmt_value(d.cur_mean),
                    format!("{:+.1}", 100.0 * d.rel_delta),
                    format!("{:+.2}", d.z),
                    match d.verdict {
                        Verdict::Ok => "",
                        Verdict::Improved => "improved",
                        Verdict::Regressed => "REGRESSED",
                    }
                    .to_string(),
                ]);
            }
        }
        let mut out = String::new();
        if shown > 0 {
            out.push_str(&table.render());
        }
        let _ = writeln!(
            out,
            "{total} metrics compared ({} within ±{:.0}% shown above), {} unchanged or minor",
            shown,
            100.0 * opts.threshold / 2.0,
            total - shown
        );
        for exp in &self.experiments {
            if exp.stage_mix_drifted {
                let stage = exp
                    .stage_moved
                    .as_ref()
                    .map(|(s, us)| format!(" — {s} moved {us:+.0}µs"))
                    .unwrap_or_default();
                let _ = writeln!(
                    out,
                    "note: {}: critical-path stage mix drifted (chi² @99.9%){stage}",
                    exp.experiment
                );
            }
            for m in &exp.new_metrics {
                let _ = writeln!(out, "note: {}: new metric {m}", exp.experiment);
            }
        }
        for (name, side) in &self.unpaired {
            let _ = writeln!(out, "note: {name} only present in {side} set");
        }
        let regressions = self.regressions();
        if regressions.is_empty() {
            let _ = writeln!(out, "verdict: OK — no regression past the gates");
        } else {
            let _ = writeln!(out, "verdict: {} regression(s):", regressions.len());
            for (exp, desc) in &regressions {
                let _ = writeln!(out, "  {exp}: {desc}");
            }
        }
        out
    }
}

/// Whether a smaller value of this metric is better. Almost everything
/// the suite tracks is time, cost, size or error; the few throughput-
/// style metrics are listed here.
fn lower_is_better(metric: &str) -> bool {
    !(metric.starts_with("speedup.") || metric.starts_with("sharing.cps_avg_degree"))
}

/// Compare `current` against `baseline`. Errors (schema or scale-config
/// mismatch, empty sets) mean the comparison itself is invalid — the
/// CLI exits 2 on them, distinct from exit 1 for regressions.
pub fn compare(
    baseline: &[BenchArtifact],
    current: &[BenchArtifact],
    opts: &CompareOpts,
) -> Result<CompareReport, String> {
    if baseline.is_empty() {
        return Err("baseline set is empty".into());
    }
    if current.is_empty() {
        return Err("current set is empty".into());
    }
    let mut report = CompareReport::default();
    for b in baseline {
        let Some(c) = current
            .iter()
            .find(|c| c.meta.experiment == b.meta.experiment)
        else {
            report
                .unpaired
                .push((b.meta.experiment.clone(), "baseline"));
            continue;
        };
        if b.meta.schema_version != c.meta.schema_version {
            return Err(format!(
                "{}: schema version mismatch (baseline v{}, current v{})",
                b.meta.experiment, b.meta.schema_version, c.meta.schema_version
            ));
        }
        if b.meta.comparability_key() != c.meta.comparability_key() {
            return Err(format!(
                "{}: scale config mismatch — baseline [{}] vs current [{}]; \
                 regenerate the baseline with matching STRATMR_* variables",
                b.meta.experiment,
                b.meta.comparability_key(),
                c.meta.comparability_key()
            ));
        }
        report.experiments.push(compare_experiment(b, c, opts));
    }
    for c in current {
        if !baseline
            .iter()
            .any(|b| b.meta.experiment == c.meta.experiment)
        {
            report.unpaired.push((c.meta.experiment.clone(), "current"));
        }
    }
    Ok(report)
}

fn compare_experiment(
    base: &BenchArtifact,
    cur: &BenchArtifact,
    opts: &CompareOpts,
) -> ExperimentReport {
    let mut deltas = Vec::new();
    let mut missing = Vec::new();
    for (name, b) in &base.metrics {
        let Some(c) = cur.metrics.get(name) else {
            missing.push(name.clone());
            continue;
        };
        deltas.push(judge_metric(name, b, c, opts));
    }
    let new_metrics = cur
        .metrics
        .keys()
        .filter(|k| !base.metrics.contains_key(*k))
        .cloned()
        .collect();

    // stage attribution: which critical-path stage moved most, and did
    // the stage *mix* drift beyond chi-square noise (per-mille shares)?
    let stage_moved = base
        .stages
        .named()
        .iter()
        .zip(cur.stages.named())
        .map(|(&(name, b_us), (_, c_us))| (name.to_string(), c_us - b_us))
        .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap());
    let stage_mix_drifted = {
        let (b_total, c_total) = (base.stages.total_us(), cur.stages.total_us());
        if b_total > 0.0 && c_total > 0.0 {
            let observed: Vec<u64> = cur
                .stages
                .named()
                .iter()
                .map(|(_, us)| (1000.0 * us / c_total).round() as u64)
                .collect();
            let expected: Vec<f64> = base
                .stages
                .named()
                .iter()
                .map(|(_, us)| 1000.0 * us / b_total)
                .collect();
            !chi2_gof_ok(&observed, &expected)
        } else {
            false
        }
    };

    // retry-rate screen against the baseline rate
    let retry_alert = retry_rate_alert(base, cur, opts.z_crit);

    ExperimentReport {
        experiment: base.meta.experiment.clone(),
        deltas,
        stage_moved,
        stage_mix_drifted,
        retry_alert,
        quality_alerts: quality_alerts(base, cur, opts.z_crit),
        missing_metrics: missing,
        new_metrics,
    }
}

/// Gate the v2 `quality` block (see module docs): realized-`f` bias
/// beyond the binomial bound at `z`, a negative optimality gap, or a
/// gap inflated ≥ 20% over the baseline.
fn quality_alerts(base: &BenchArtifact, cur: &BenchArtifact, z: f64) -> Vec<String> {
    let mut alerts = Vec::new();
    for s in &cur.quality.strata {
        if s.candidates == 0 {
            continue;
        }
        let p = (s.requested as f64 / s.candidates as f64).min(1.0);
        if !binomial_within_bound(s.sampled, s.candidates, p, z) {
            alerts.push(format!(
                "quality: stratum {}: realized f {}/{} deviates from requested {} beyond \
                 the binomial bound (bias z={:+.2})",
                s.key, s.sampled, s.candidates, s.requested, s.bias_z
            ));
        }
    }
    if let Some(cur_gap) = cur.quality.optimality_gap {
        if cur_gap < -1e-9 {
            alerts.push(format!(
                "quality: optimality gap is negative ({cur_gap:.6}) — \
                 answer cost fell below the solver objective"
            ));
        }
        if let Some(base_gap) = base.quality.optimality_gap {
            if cur_gap > base_gap.max(1e-9) * 1.2 && cur_gap - base_gap > 1e-6 {
                alerts.push(format!(
                    "quality: optimality gap inflated {:.3}% → {:.3}% (≥ 20% over baseline)",
                    100.0 * base_gap,
                    100.0 * cur_gap
                ));
            }
        }
    }
    alerts
}

fn judge_metric(
    name: &str,
    base: &crate::artifact::MetricSeries,
    cur: &crate::artifact::MetricSeries,
    opts: &CompareOpts,
) -> MetricDelta {
    let (b_mean, c_mean) = (base.mean(), cur.mean());
    let scale = b_mean.abs().max(1e-12);
    let rel = (c_mean - b_mean) / scale;
    let z = mann_whitney_z(&base.samples, &cur.samples);
    // orient so positive = worse
    let (worse_rel, worse_z) = if lower_is_better(name) {
        (rel, z)
    } else {
        (-rel, -z)
    };
    // values this small are noise floor, not signal
    let negligible = b_mean.abs().max(c_mean.abs()) < 1e-9;
    let verdict = if negligible || worse_rel.abs() <= opts.threshold {
        Verdict::Ok
    } else if worse_rel > 0.0 {
        // the delta gate tripped; demand significance when both sides
        // carry enough samples for the rank test to mean something
        let rank_gate_applies = base.samples.len() >= MIN_SAMPLES
            && cur.samples.len() >= MIN_SAMPLES
            && z_attainable(base.samples.len(), cur.samples.len()) > opts.z_crit;
        if rank_gate_applies && worse_z <= opts.z_crit {
            Verdict::Ok
        } else {
            Verdict::Regressed
        }
    } else {
        Verdict::Improved
    };
    MetricDelta {
        metric: name.to_string(),
        unit: cur.unit.clone(),
        base_mean: b_mean,
        cur_mean: c_mean,
        rel_delta: rel,
        z,
        verdict,
    }
}

/// The largest Mann–Whitney z two fully separated samples of these
/// sizes can produce — if it is below z_crit, the rank test cannot
/// reach significance and the delta gate must decide alone.
fn z_attainable(n1: usize, n2: usize) -> f64 {
    let (n1, n2) = (n1 as f64, n2 as f64);
    let var = n1 * n2 * (n1 + n2 + 1.0) / 12.0;
    (n1 * n2 / 2.0 - 0.5) / var.sqrt()
}

/// Screen the current task-retry rate against the baseline rate with
/// the binomial acceptance bound.
fn retry_rate_alert(base: &BenchArtifact, cur: &BenchArtifact, z: f64) -> Option<String> {
    let count = |a: &BenchArtifact, name: &str| -> Option<u64> {
        a.metrics.get(name).map(|m| m.mean().round() as u64)
    };
    let totals = |a: &BenchArtifact| -> Option<(u64, u64)> {
        let retries =
            count(a, "counter.mr.map.task_retries")? + count(a, "counter.mr.reduce.task_retries")?;
        let tasks = count(a, "counter.mr.map.tasks")? + count(a, "counter.mr.reduce.tasks")?;
        (tasks > 0).then_some((retries, tasks))
    };
    let (b_retries, b_tasks) = totals(base)?;
    let (c_retries, c_tasks) = totals(cur)?;
    let b_rate = b_retries as f64 / b_tasks as f64;
    let c_rate = c_retries as f64 / c_tasks as f64;
    if c_rate > b_rate && !binomial_within_bound(c_retries, c_tasks, b_rate, z) {
        return Some(format!(
            "task retry rate {:.2}% exceeds baseline {:.2}% beyond the binomial bound \
             ({c_retries}/{c_tasks} vs {b_retries}/{b_tasks})",
            100.0 * c_rate,
            100.0 * b_rate
        ));
    }
    None
}

/// Compact value formatting across the µs-to-fraction value range.
fn fmt_value(v: f64) -> String {
    let a = v.abs();
    if a >= 1000.0 {
        format!("{v:.0}")
    } else if a >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{MetricSeries, QualityBlock, QualityStratum, StageTotals};
    use crate::env::BenchConfig;
    use crate::meta::ArtifactMeta;

    fn artifact(experiment: &str, metrics: &[(&str, MetricSeries)]) -> BenchArtifact {
        BenchArtifact {
            meta: ArtifactMeta::fixed_for_tests(experiment, 1, &BenchConfig::default()),
            stages: StageTotals {
                setup_us: 10.0,
                map_us: 70.0,
                shuffle_us: 15.0,
                reduce_us: 5.0,
            },
            metrics: metrics
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            quality: QualityBlock::default(),
            records_json: "[]".to_string(),
        }
    }

    #[test]
    fn identical_sets_have_no_regressions() {
        let a = artifact(
            "fig7_running_times",
            &[(
                "makespan_us.mqe.s10",
                MetricSeries::new("us", vec![100.0, 101.0, 99.0, 100.5]),
            )],
        );
        let b = a.clone();
        let report = compare(&[a], &[b], &CompareOpts::default()).unwrap();
        assert!(!report.has_regressions(), "{:?}", report.regressions());
        let text = report.render(&CompareOpts::default());
        assert!(text.contains("verdict: OK"), "{text}");
    }

    #[test]
    fn large_significant_shift_regresses_and_names_the_stage() {
        let base = artifact(
            "fig7_running_times",
            &[(
                "makespan_us.mqe.s10",
                MetricSeries::new("us", vec![100.0, 101.0, 99.0, 100.5, 99.5, 100.2]),
            )],
        );
        let mut cur = artifact(
            "fig7_running_times",
            &[(
                "makespan_us.mqe.s10",
                MetricSeries::new("us", vec![130.0, 131.0, 129.0, 130.5, 129.5, 130.2]),
            )],
        );
        cur.stages.map_us = 100.0; // the stage that inflated
        let report = compare(&[base], &[cur], &CompareOpts::default()).unwrap();
        let regs = report.regressions();
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].1.contains("makespan_us.mqe.s10"), "{regs:?}");
        assert!(regs[0].1.contains("map"), "stage attribution: {regs:?}");
        let text = report.render(&CompareOpts::default());
        assert!(text.contains("REGRESSED"), "{text}");
    }

    #[test]
    fn large_but_insignificant_shift_passes_the_rank_gate() {
        // means differ by >20% but the samples interleave — the
        // Mann–Whitney gate must hold the alarm (z ≈ 0 here)
        let base = artifact(
            "t",
            &[(
                "makespan_us.x",
                MetricSeries::new("us", [10.0, 200.0].repeat(6)),
            )],
        );
        let cur = artifact(
            "t",
            &[(
                "makespan_us.x",
                MetricSeries::new("us", [8.0, 250.0].repeat(6)),
            )],
        );
        let report = compare(&[base], &[cur], &CompareOpts::default()).unwrap();
        assert!(!report.has_regressions(), "{:?}", report.regressions());
    }

    #[test]
    fn rank_gate_only_applies_when_significance_is_attainable() {
        // 6 fully separated samples max out at z ≈ 2.8 < 3 — the delta
        // gate must decide alone and still catch the 30% inflation
        assert!(z_attainable(6, 6) < 3.0);
        assert!(z_attainable(9, 9) > 3.0);
    }

    #[test]
    fn single_sample_counters_gate_on_delta_alone() {
        let base = artifact(
            "t",
            &[("counter.lp.pivots", MetricSeries::single("count", 100.0))],
        );
        let cur = artifact(
            "t",
            &[("counter.lp.pivots", MetricSeries::single("count", 150.0))],
        );
        let report = compare(&[base], &[cur], &CompareOpts::default()).unwrap();
        assert!(report.has_regressions());
    }

    #[test]
    fn higher_is_better_metrics_regress_downward() {
        let base = artifact(
            "t",
            &[("speedup.s1_over_s10", MetricSeries::single("ratio", 8.0))],
        );
        let up = artifact(
            "t",
            &[("speedup.s1_over_s10", MetricSeries::single("ratio", 9.5))],
        );
        let down = artifact(
            "t",
            &[("speedup.s1_over_s10", MetricSeries::single("ratio", 6.0))],
        );
        let opts = CompareOpts::default();
        assert!(!compare(std::slice::from_ref(&base), &[up], &opts)
            .unwrap()
            .has_regressions());
        assert!(compare(&[base], &[down], &opts).unwrap().has_regressions());
    }

    #[test]
    fn config_mismatch_is_an_error_not_a_regression() {
        let base = artifact("t", &[]);
        let mut cur = artifact("t", &[]);
        cur.meta.config.population = 42;
        let err = compare(&[base], &[cur], &CompareOpts::default()).unwrap_err();
        assert!(err.contains("scale config mismatch"), "{err}");
    }

    #[test]
    fn missing_metric_is_flagged() {
        let base = artifact(
            "t",
            &[("counter.mr.jobs", MetricSeries::single("count", 3.0))],
        );
        let cur = artifact("t", &[]);
        let report = compare(&[base], &[cur], &CompareOpts::default()).unwrap();
        let regs = report.regressions();
        assert_eq!(regs.len(), 1);
        assert!(regs[0].1.contains("disappeared"), "{regs:?}");
    }

    fn quality(strata: &[(&str, u64, u64, u64)], gap: Option<f64>) -> QualityBlock {
        QualityBlock {
            strata: strata
                .iter()
                .map(|&(key, requested, candidates, sampled)| QualityStratum {
                    key: key.to_string(),
                    requested,
                    candidates,
                    sampled,
                    bias_z: 0.0,
                })
                .collect(),
            max_abs_bias_z: 0.0,
            starved_strata: 0,
            optimality_gap: gap,
        }
    }

    #[test]
    fn realized_f_beyond_binomial_bound_regresses() {
        let mut base = artifact("optimality", &[]);
        base.quality = quality(&[("cps.combined.s0", 100, 1000, 100)], Some(0.02));
        let mut ok = base.clone();
        ok.quality = quality(&[("cps.combined.s0", 100, 1000, 103)], Some(0.02));
        let opts = CompareOpts::default();
        assert!(!compare(std::slice::from_ref(&base), &[ok], &opts)
            .unwrap()
            .has_regressions());
        // a sampler that keeps twice the requested f is broken
        let mut biased = base.clone();
        biased.quality = quality(&[("cps.combined.s0", 100, 1000, 200)], Some(0.02));
        let report = compare(&[base], &[biased], &opts).unwrap();
        let regs = report.regressions();
        assert!(
            regs.iter().any(|(_, d)| d.contains("binomial bound")),
            "{regs:?}"
        );
    }

    #[test]
    fn optimality_gap_gates_on_sign_and_inflation() {
        let mut base = artifact("optimality", &[]);
        base.quality = quality(&[], Some(0.020));
        let opts = CompareOpts::default();
        // small wobble under the 20% fence: fine
        let mut wobble = base.clone();
        wobble.quality.optimality_gap = Some(0.023);
        assert!(!compare(std::slice::from_ref(&base), &[wobble], &opts)
            .unwrap()
            .has_regressions());
        // ≥ 20% inflation: regression
        let mut inflated = base.clone();
        inflated.quality.optimality_gap = Some(0.030);
        let regs = compare(std::slice::from_ref(&base), &[inflated], &opts)
            .unwrap()
            .regressions();
        assert!(regs.iter().any(|(_, d)| d.contains("inflated")), "{regs:?}");
        // a negative gap means the invariant C_sol ≤ C_A broke
        let mut negative = base.clone();
        negative.quality.optimality_gap = Some(-0.01);
        let regs = compare(&[base], &[negative], &opts).unwrap().regressions();
        assert!(regs.iter().any(|(_, d)| d.contains("negative")), "{regs:?}");
    }

    #[test]
    fn retry_rate_screen_uses_binomial_bound() {
        let mk = |retries: f64| {
            artifact(
                "t",
                &[
                    (
                        "counter.mr.map.task_retries",
                        MetricSeries::single("count", retries),
                    ),
                    (
                        "counter.mr.reduce.task_retries",
                        MetricSeries::single("count", 0.0),
                    ),
                    (
                        "counter.mr.map.tasks",
                        MetricSeries::single("count", 1000.0),
                    ),
                    (
                        "counter.mr.reduce.tasks",
                        MetricSeries::single("count", 100.0),
                    ),
                ],
            )
        };
        let opts = CompareOpts::default();
        // same rate: fine; 10× the baseline rate: alert
        assert!(!compare(&[mk(10.0)], &[mk(11.0)], &opts)
            .unwrap()
            .has_regressions());
        let report = compare(&[mk(10.0)], &[mk(100.0)], &opts).unwrap();
        let regs = report.regressions();
        assert!(
            regs.iter().any(|(_, d)| d.contains("retry rate")),
            "{regs:?}"
        );
    }
}
