//! Sample-quality audit ledger and report.
//!
//! Every sampling job (MR-SQE, MR-MQE, the combined and residual phases
//! of MR-CPS) records a per-stratum *inclusion-probability trail* in the
//! telemetry registry: how many individuals were requested, how many
//! candidates were seen, how many were sampled and rejected. This module
//! turns those counters back into statistics — acceptance probabilities,
//! Horvitz–Thompson weights, realized-`f` bias z-scores against the
//! binomial bound — and bundles them with estimator diagnostics from
//! [`crate::estimate`] into a [`QualityReport`] that renders as
//! deterministic sorted-key JSON or an aligned text table (same
//! conventions as `Snapshot::render_text`).
//!
//! Data flow: sampling jobs write counters → [`QualityReport::from_snapshot`]
//! reconstructs the ledger → the bench suite embeds the report in
//! `BENCH_*.json` artifacts → `bench_compare` gates on realized-`f` bias.

use std::fmt::Write as _;

use crate::estimate::{srs_mean, stratified_mean, Estimate};
use crate::stats::binomial_within_bound;
use stratmr_population::{AttrId, Individual};
use stratmr_query::SsdAnswer;
use stratmr_telemetry::{json, Layout, Snapshot, Writer};

/// z-score of a two-sided 95% confidence interval.
pub(crate) const Z_95: f64 = 1.96;

/// z-score used by the audit's realized-`f` bias gate (≈ 99.7%).
pub const BIAS_GATE_Z: f64 = 3.0;

/// The inclusion-probability trail of one stratum of one sampling job —
/// the raw material of the audit ledger, reconstructed from the
/// `<job>.s<k>.{requested,candidates,sampled,rejected}` counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StratumTrail {
    /// Counter prefix identifying the job and stratum, e.g. `sqe.s0`,
    /// `mqe.q1.s2` or `cps.combined.s3`.
    pub key: String,
    /// Requested sample frequency `f` for the stratum.
    pub requested: u64,
    /// Candidates seen — individuals matching the stratum condition.
    pub candidates: u64,
    /// Individuals actually sampled.
    pub sampled: u64,
    /// Candidates seen but not retained.
    pub rejected: u64,
}

impl StratumTrail {
    /// The target inclusion probability `min(1, f / candidates)` — what
    /// an unbiased design should realize. Zero when no candidates exist.
    pub(crate) fn target_probability(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            (self.requested as f64 / self.candidates as f64).min(1.0)
        }
    }

    /// Realized acceptance probability `sampled / candidates` (zero when
    /// no candidates were seen).
    pub(crate) fn acceptance_probability(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.sampled as f64 / self.candidates as f64
        }
    }

    /// Horvitz–Thompson weight `candidates / sampled` of each retained
    /// individual — the inverse inclusion probability that makes the
    /// stratum total `Σ w` unbiased. Zero when nothing was sampled.
    pub fn ht_weight(&self) -> f64 {
        if self.sampled == 0 {
            0.0
        } else {
            self.candidates as f64 / self.sampled as f64
        }
    }

    /// z-score of the realized sample count against a Binomial
    /// (candidates, target probability) draw: `(sampled − n·p) /
    /// sqrt(n·p·(1−p))`. Zero when the binomial variance is zero (no
    /// candidates, or a take-all stratum where `p = 1`).
    pub fn bias_z(&self) -> f64 {
        let n = self.candidates as f64;
        let p = self.target_probability();
        let sd = (n * p * (1.0 - p)).sqrt();
        if sd <= 0.0 {
            0.0
        } else {
            (self.sampled as f64 - n * p) / sd
        }
    }

    /// Is the realized count within `z` binomial standard deviations of
    /// its expectation (plus the ½ continuity correction)? Vacuously
    /// true for empty strata.
    pub(crate) fn within_binomial_bound(&self, z: f64) -> bool {
        if self.candidates == 0 {
            return true;
        }
        binomial_within_bound(self.sampled, self.candidates, self.target_probability(), z)
    }

    /// A stratum that wanted individuals but got none — the ledger-level
    /// analogue of [`Estimate::degenerate`].
    pub(crate) fn is_starved(&self) -> bool {
        self.requested > 0 && self.sampled == 0
    }
}

/// Estimator diagnostics for one attribute, pairing the stratified
/// estimate with its simple-random-sample counterpart so the design
/// effect (variance ratio) and effective sample size are visible.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateSummary {
    /// Caller-chosen label, e.g. the attribute name.
    pub label: String,
    /// The stratified estimate (with its degeneracy flag).
    pub estimate: Estimate,
    /// 95% confidence interval of the stratified estimate.
    pub ci: (f64, f64),
    /// Design effect `Var_strat / Var_srs` (1.0 when the SRS variance
    /// vanishes, e.g. on a census).
    pub design_effect: f64,
    /// Effective sample size `n / deff` — how many SRS draws the
    /// stratified sample is worth.
    pub effective_sample_size: f64,
    /// Number of sampled individuals behind the estimate.
    pub sample_size: usize,
}

/// Summarize the stratified-mean estimator of `attr` over `answer`,
/// comparing against the pooled simple-random-sample estimator to get
/// the design effect. `stratum_sizes[k]` is the population size `N_k`.
pub fn summarize_mean(
    label: &str,
    answer: &SsdAnswer,
    stratum_sizes: &[usize],
    attr: AttrId,
) -> EstimateSummary {
    let strat = stratified_mean(answer, stratum_sizes, attr);
    let population: usize = stratum_sizes.iter().sum();
    let pooled: Vec<Individual> = answer.iter().cloned().collect();
    let srs = srs_mean(&pooled, population.max(1), attr);
    let n = pooled.len();
    let design_effect = if srs.std_error > 0.0 {
        (strat.std_error / srs.std_error).powi(2)
    } else {
        1.0
    };
    let effective_sample_size = if design_effect > 0.0 {
        n as f64 / design_effect
    } else {
        n as f64
    };
    EstimateSummary {
        label: label.to_string(),
        estimate: strat,
        ci: strat.interval(Z_95),
        design_effect,
        effective_sample_size,
        sample_size: n,
    }
}

/// The audit report: the full per-stratum ledger plus any estimator
/// summaries the caller attached. Renders deterministically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QualityReport {
    /// Per-stratum inclusion-probability trails, sorted by key.
    pub trails: Vec<StratumTrail>,
    /// Estimator diagnostics, in insertion order.
    pub estimates: Vec<EstimateSummary>,
}

impl QualityReport {
    /// Reconstruct the ledger from a telemetry snapshot by scanning for
    /// `*.candidates` counters and joining their sibling counters. Keys
    /// come out sorted because snapshot counters are stored sorted.
    pub fn from_snapshot(snapshot: &Snapshot) -> Self {
        let keys: Vec<String> = snapshot
            .counter_names()
            .filter_map(|n| n.strip_suffix(".candidates"))
            .map(str::to_string)
            .collect();
        let trails = keys
            .into_iter()
            .map(|key| StratumTrail {
                requested: snapshot.counter(&format!("{key}.requested")),
                candidates: snapshot.counter(&format!("{key}.candidates")),
                sampled: snapshot.counter(&format!("{key}.sampled")),
                rejected: snapshot.counter(&format!("{key}.rejected")),
                key,
            })
            .collect();
        QualityReport {
            trails,
            estimates: Vec::new(),
        }
    }

    /// Largest absolute realized-`f` bias z-score across the ledger.
    pub fn max_abs_bias_z(&self) -> f64 {
        self.trails
            .iter()
            .map(|t| t.bias_z().abs())
            .fold(0.0, f64::max)
    }

    /// Number of starved strata (requested > 0 but nothing sampled).
    pub fn starved_strata(&self) -> usize {
        self.trails.iter().filter(|t| t.is_starved()).count()
    }

    /// Number of attached estimates carrying the degenerate flag.
    pub(crate) fn degenerate_estimates(&self) -> usize {
        self.estimates
            .iter()
            .filter(|e| e.estimate.degenerate)
            .count()
    }

    /// Do all trails pass the binomial bound at z-score `z`?
    pub fn all_within_bound(&self, z: f64) -> bool {
        self.trails.iter().all(|t| t.within_binomial_bound(z))
    }

    /// Render as deterministic JSON: sorted keys, fixed six-decimal
    /// floats.
    pub fn to_json(&self) -> String {
        json::document(json::INDENT, |w| self.write_fields(w))
    }

    /// Write the fields of [`QualityReport::to_json`] into the open
    /// object of `w`, so a document can lead with its own header.
    pub fn write_fields(&self, w: &mut Writer) {
        w.key("estimates").array(Layout::Lines, |w| {
            for e in &self.estimates {
                w.object(Layout::Inline, |w| {
                    w.field("ci_high", e.ci.1)
                        .field("ci_low", e.ci.0)
                        .field("degenerate", e.estimate.degenerate)
                        .field("design_effect", e.design_effect)
                        .field("effective_sample_size", e.effective_sample_size)
                        .field("label", &e.label)
                        .field("sample_size", e.sample_size)
                        .field("std_error", e.estimate.std_error)
                        .field("value", e.estimate.value);
                });
            }
        });
        w.key("summary").object(Layout::Inline, |w| {
            w.field("degenerate_estimates", self.degenerate_estimates())
                .field("max_abs_bias_z", self.max_abs_bias_z())
                .field("starved_strata", self.starved_strata())
                .field("strata", self.trails.len());
        });
        w.key("trails").array(Layout::Lines, |w| {
            for t in &self.trails {
                w.object(Layout::Inline, |w| {
                    w.field("acceptance_probability", t.acceptance_probability())
                        .field("bias_z", t.bias_z())
                        .field("candidates", t.candidates)
                        .field("ht_weight", t.ht_weight())
                        .field("key", &t.key)
                        .field("rejected", t.rejected)
                        .field("requested", t.requested)
                        .field("sampled", t.sampled);
                });
            }
        });
    }

    /// Render as an aligned text table (same conventions as
    /// `Snapshot::render_text`): a `trails` section, an `estimates`
    /// section when present, and a one-line summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if !self.trails.is_empty() {
            out.push_str("trails:\n");
            let w = self
                .trails
                .iter()
                .map(|t| t.key.len())
                .max()
                .unwrap_or(0)
                .max("stratum".len());
            let _ = writeln!(
                out,
                "  {:<w$}  {:>9}  {:>10}  {:>8}  {:>8}  {:>8}  {:>9}  {:>7}",
                "stratum",
                "requested",
                "candidates",
                "sampled",
                "rejected",
                "accept_p",
                "ht_weight",
                "bias_z"
            );
            for t in &self.trails {
                let _ = writeln!(
                    out,
                    "  {:<w$}  {:>9}  {:>10}  {:>8}  {:>8}  {:>8.4}  {:>9.3}  {:>7.3}{}",
                    t.key,
                    t.requested,
                    t.candidates,
                    t.sampled,
                    t.rejected,
                    t.acceptance_probability(),
                    t.ht_weight(),
                    t.bias_z(),
                    if t.is_starved() { "  [starved]" } else { "" }
                );
            }
        }
        if !self.estimates.is_empty() {
            out.push_str("estimates:\n");
            let w = self
                .estimates
                .iter()
                .map(|e| e.label.len())
                .max()
                .unwrap_or(0)
                .max("label".len());
            let _ = writeln!(
                out,
                "  {:<w$}  {:>12}  {:>10}  {:>12}  {:>12}  {:>7}  {:>9}",
                "label", "value", "std_error", "ci95_low", "ci95_high", "deff", "n_eff"
            );
            for e in &self.estimates {
                let _ = writeln!(
                    out,
                    "  {:<w$}  {:>12.4}  {:>10.4}  {:>12.4}  {:>12.4}  {:>7.3}  {:>9.1}{}",
                    e.label,
                    e.estimate.value,
                    e.estimate.std_error,
                    e.ci.0,
                    e.ci.1,
                    e.design_effect,
                    e.effective_sample_size,
                    if e.estimate.degenerate {
                        "  [degenerate]"
                    } else {
                        ""
                    }
                );
            }
        }
        let _ = writeln!(
            out,
            "summary: {} strata, max |bias z| {:.3}, {} starved, {} degenerate estimates",
            self.trails.len(),
            self.max_abs_bias_z(),
            self.starved_strata(),
            self.degenerate_estimates()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stratmr_telemetry::Registry;

    fn trail(requested: u64, candidates: u64, sampled: u64) -> StratumTrail {
        StratumTrail {
            key: "sqe.s0".into(),
            requested,
            candidates,
            sampled,
            rejected: candidates - sampled,
        }
    }

    #[test]
    fn trail_probabilities_and_weights() {
        let t = trail(10, 500, 10);
        assert!((t.target_probability() - 0.02).abs() < 1e-12);
        assert!((t.acceptance_probability() - 0.02).abs() < 1e-12);
        assert!((t.ht_weight() - 50.0).abs() < 1e-12);
        // sampled == expected → no bias
        assert_eq!(t.bias_z(), 0.0);
        assert!(t.within_binomial_bound(BIAS_GATE_Z));
        assert!(!t.is_starved());
    }

    #[test]
    fn degenerate_trails_are_safe() {
        let empty = trail(5, 0, 0);
        assert_eq!(empty.target_probability(), 0.0);
        assert_eq!(empty.ht_weight(), 0.0);
        assert_eq!(empty.bias_z(), 0.0);
        assert!(empty.within_binomial_bound(BIAS_GATE_Z));
        assert!(empty.is_starved(), "requested but empty is starved");
        // take-all stratum: p = 1 → zero binomial variance, no bias
        let census = trail(100, 40, 40);
        assert!((census.target_probability() - 1.0).abs() < 1e-12);
        assert_eq!(census.bias_z(), 0.0);
        assert!(census.within_binomial_bound(BIAS_GATE_Z));
    }

    #[test]
    fn biased_trail_fails_the_gate() {
        // expected 10 of 1000, got 60 → z ≈ 15.9
        let t = trail(10, 1000, 60);
        assert!(t.bias_z() > 10.0);
        assert!(!t.within_binomial_bound(BIAS_GATE_Z));
    }

    #[test]
    fn report_reconstructs_ledger_from_snapshot() {
        let registry = Registry::new();
        for (k, (req, cand, samp)) in [(0u64, (5u64, 80u64, 5u64)), (1, (7, 40, 7))] {
            registry.add(&format!("sqe.s{k}.requested"), req);
            registry.add(&format!("sqe.s{k}.candidates"), cand);
            registry.add(&format!("sqe.s{k}.sampled"), samp);
            registry.add(&format!("sqe.s{k}.rejected"), cand - samp);
        }
        registry.add("mr.map.output_records", 120); // must not be picked up
        let report = QualityReport::from_snapshot(&registry.snapshot());
        assert_eq!(report.trails.len(), 2);
        assert_eq!(report.trails[0].key, "sqe.s0");
        assert_eq!(report.trails[0].candidates, 80);
        assert_eq!(report.trails[1].key, "sqe.s1");
        assert_eq!(report.trails[1].requested, 7);
        assert_eq!(report.starved_strata(), 0);
        assert!(report.all_within_bound(BIAS_GATE_Z));
    }

    #[test]
    fn json_is_deterministic_and_tagged() {
        let mut report = QualityReport {
            trails: vec![trail(10, 500, 10), trail(3, 7, 3)],
            estimates: Vec::new(),
        };
        report.estimates.push(EstimateSummary {
            label: "age".into(),
            estimate: Estimate::new(41.5, 0.25),
            ci: (41.01, 41.99),
            design_effect: 0.4,
            effective_sample_size: 32.5,
            sample_size: 13,
        });
        let a = report.to_json();
        let b = report.to_json();
        assert_eq!(a, b, "rendering must be deterministic");
        assert!(
            a.starts_with("{\n  \"estimates\": [\n    {\"ci_high\": "),
            "{a}"
        );
        assert!(a.contains("\"ht_weight\": 50.000000"));
        assert!(a.contains("\"label\": \"age\""));
        assert!(a.contains("\"max_abs_bias_z\": "));
        // keys inside each object are alphabetical
        let trail_line = a
            .lines()
            .find(|l| l.contains("\"key\": \"sqe.s0\""))
            .unwrap();
        let positions: Vec<usize> = ["acceptance_probability", "bias_z", "candidates", "key"]
            .iter()
            .map(|k| trail_line.find(*k).unwrap())
            .collect();
        assert!(positions.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn text_table_lists_trails_and_summary() {
        let report = QualityReport {
            trails: vec![trail(10, 500, 10), trail(4, 4, 0)],
            estimates: Vec::new(),
        };
        let text = report.render_text();
        assert!(text.contains("trails:"));
        assert!(text.contains("sqe.s0"));
        assert!(text.contains("[starved]"));
        assert!(text.contains("summary: 2 strata"));
        assert!(text.contains("1 starved"));
    }

    #[test]
    fn summarize_mean_reports_design_effect_below_one_for_good_designs() {
        use crate::reservoir::reservoir_sample;
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng;

        // Example-1-style population: rare extreme stratum
        let common: Vec<Individual> = (0..900u64)
            .map(|i| Individual::new(i, vec![10 + (i % 5) as i64], 0))
            .collect();
        let rare: Vec<Individual> = (0..100u64)
            .map(|i| Individual::new(900 + i, vec![1000 + (i % 11) as i64], 0))
            .collect();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let s1 = reservoir_sample(common.iter().cloned(), 36, &mut rng).0;
        let s2 = reservoir_sample(rare.iter().cloned(), 4, &mut rng).0;
        let answer = SsdAnswer::from_strata(vec![s1, s2]);
        let summary = summarize_mean("age", &answer, &[900, 100], AttrId(0));
        assert_eq!(summary.sample_size, 40);
        assert!(
            summary.design_effect < 1.0,
            "stratification should beat SRS here: deff = {}",
            summary.design_effect
        );
        assert!(summary.effective_sample_size > 40.0);
        assert!(summary.ci.0 <= summary.estimate.value && summary.estimate.value <= summary.ci.1);
        assert!(!summary.estimate.degenerate);

        // starving a stratum surfaces the degenerate flag in the report
        let degenerate = SsdAnswer::from_strata(vec![answer.stratum(0).to_vec(), Vec::new()]);
        let mut report = QualityReport::default();
        report
            .estimates
            .push(summarize_mean("age", &degenerate, &[900, 100], AttrId(0)));
        assert_eq!(report.degenerate_estimates(), 1);
        assert!(report.to_json().contains("\"degenerate\": true"));
    }
}
