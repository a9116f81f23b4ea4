//! Versioned, schema-stable `BENCH_<experiment>.json` artifacts.
//!
//! One artifact per experiment records everything a later commit needs
//! to judge a perf change against this one:
//!
//! * `meta` — the common self-describing header ([`ArtifactMeta`]):
//!   schema version, experiment, seed, git SHA, `STRATMR_*` config,
//!   with host-dependent facts segregated under `meta.host`;
//! * `stages` — critical-path stage totals (setup / map / shuffle /
//!   reduce µs) summed over every traced MapReduce job, so a regression
//!   can be attributed to the stage that moved;
//! * `metrics` — named raw sample sets (simulated makespans, cost
//!   ratios, LP sizes, counter values …) with summary stats
//!   (mean/p50/p95/min/max) recomputed from the samples;
//! * `records` — the experiment's full per-row records, embedded
//!   verbatim.
//!
//! Everything in the artifact is a pure function of the code, the seed
//! and the configuration: the suite pins the cost model's
//! `cpu_slowdown` to zero (as `--trace` does), so simulated times carry
//! no host noise and two runs at one commit produce byte-identical
//! files. Rendering is deterministic by construction — `BTreeMap`
//! metric order, fixed key order inside objects, fixed six-digit float
//! precision — so artifact diffs are clean line diffs.

use crate::meta::{as_f64, ArtifactMeta};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use stratmr_mapreduce::analysis;
use stratmr_telemetry::{escape_json, write_json_f64, JobTrace, Snapshot};

/// A named sample set with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSeries {
    /// Unit tag (`us`, `percent`, `count`, …) — informational.
    pub unit: String,
    /// Raw per-run samples, in run order.
    pub samples: Vec<f64>,
}

impl MetricSeries {
    /// A series over `samples` with the given unit.
    pub fn new(unit: &str, samples: Vec<f64>) -> Self {
        Self {
            unit: unit.to_string(),
            samples,
        }
    }

    /// Single-sample series (deterministic counters and one-shot
    /// measurements).
    pub fn single(unit: &str, value: f64) -> Self {
        Self::new(unit, vec![value])
    }

    /// Mean of the samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Empirical quantile: the rank-`⌈q·n⌉` order statistic.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let rank =
            ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Smallest sample (0.0 when empty).
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest sample (0.0 when empty).
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Critical-path stage totals over every traced job of an experiment.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageTotals {
    /// Σ job-setup overhead on the critical path, µs.
    pub setup_us: f64,
    /// Σ busy time of the map-bound machine per job, µs.
    pub map_us: f64,
    /// Σ bounding shuffle transfer per job, µs.
    pub shuffle_us: f64,
    /// Σ busy time of the reduce-bound machine per job, µs.
    pub reduce_us: f64,
}

impl StageTotals {
    /// Sum the critical path of every traced job.
    pub fn from_traces(jobs: &[JobTrace]) -> Self {
        let mut t = StageTotals::default();
        for job in jobs {
            let cp = analysis::critical_path(job);
            t.setup_us += cp.overhead_us;
            t.map_us += cp.map_us;
            t.shuffle_us += cp.shuffle_us;
            t.reduce_us += cp.reduce_us;
        }
        t
    }

    /// `(name, µs)` pairs in render order.
    pub fn named(&self) -> [(&'static str, f64); 4] {
        [
            ("map", self.map_us),
            ("reduce", self.reduce_us),
            ("setup", self.setup_us),
            ("shuffle", self.shuffle_us),
        ]
    }

    /// Total critical-path time across stages, µs.
    pub fn total_us(&self) -> f64 {
        self.setup_us + self.map_us + self.shuffle_us + self.reduce_us
    }
}

/// One per-stratum row of the artifact's sample-quality block: the
/// audit ledger's inclusion-probability trail for one sampling-job
/// stratum, plus its realized-`f` bias z-score.
#[derive(Clone, Debug, PartialEq)]
pub struct QualityStratum {
    /// Counter prefix identifying job and stratum (`sqe.s0`, …).
    pub key: String,
    /// Requested sample frequency `f`.
    pub requested: u64,
    /// Candidates seen for the stratum.
    pub candidates: u64,
    /// Individuals actually sampled.
    pub sampled: u64,
    /// Realized-`f` bias z-score against Binomial(candidates, f/candidates).
    pub bias_z: f64,
}

/// The `quality` block of a v2 artifact: the sampling audit ledger
/// condensed per stratum, its summary statistics, and the experiment's
/// mean optimality gap when it solved constraint programs.
/// `bench_compare` gates on this block (realized-`f` bias against the
/// binomial bound, optimality-gap regressions).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QualityBlock {
    /// Per-stratum audit rows, sorted by key.
    pub strata: Vec<QualityStratum>,
    /// Largest absolute bias z-score across the strata.
    pub max_abs_bias_z: f64,
    /// Strata that requested individuals but sampled none.
    pub starved_strata: u64,
    /// Mean relative optimality gap `(C_A − C_sol) / C_A` across the
    /// experiment's CPS runs; `None` for experiments without a solver.
    pub optimality_gap: Option<f64>,
}

impl QualityBlock {
    /// Condense an audit [`stratmr_sampling::QualityReport`] (plus an
    /// optional solver gap) into the artifact block.
    pub fn from_report(report: &stratmr_sampling::QualityReport, gap: Option<f64>) -> Self {
        QualityBlock {
            strata: report
                .trails
                .iter()
                .map(|t| QualityStratum {
                    key: t.key.clone(),
                    requested: t.requested,
                    candidates: t.candidates,
                    sampled: t.sampled,
                    bias_z: t.bias_z(),
                })
                .collect(),
            max_abs_bias_z: report.max_abs_bias_z(),
            starved_strata: report.starved_strata() as u64,
            optimality_gap: gap,
        }
    }
}

/// One experiment's benchmark artifact (see module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct BenchArtifact {
    /// Self-describing header.
    pub meta: ArtifactMeta,
    /// Critical-path stage totals over the experiment's traced jobs.
    pub stages: StageTotals,
    /// Named sample sets, rendered in sorted name order.
    pub metrics: BTreeMap<String, MetricSeries>,
    /// Sample-quality block (schema v2).
    pub quality: QualityBlock,
    /// The experiment's per-row records as pretty JSON (an array).
    pub records_json: String,
}

impl BenchArtifact {
    /// `BENCH_<experiment>.json`.
    pub fn file_name(experiment: &str) -> String {
        format!("BENCH_{experiment}.json")
    }

    /// Fold every counter of a telemetry snapshot into the metrics map
    /// as single-sample `counter.<name>` series.
    pub fn add_counters(&mut self, snapshot: &Snapshot) {
        for name in snapshot.counter_names() {
            self.metrics.insert(
                format!("counter.{name}"),
                MetricSeries::single("count", snapshot.counter(name) as f64),
            );
        }
    }

    /// Render deterministically (see module docs).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"meta\": {},", self.meta.to_json());
        out.push_str("  \"stages\": {");
        let mut first = true;
        for (name, us) in self.stages.named() {
            let _ = write!(
                out,
                "{}\"{name}_us\": {us:.6}",
                if first { "" } else { ", " }
            );
            first = false;
        }
        out.push_str("},\n  \"metrics\": {");
        if self.metrics.is_empty() {
            out.push_str("},\n");
        } else {
            let mut first = true;
            for (name, series) in &self.metrics {
                out.push_str(if first { "\n" } else { ",\n" });
                first = false;
                let _ = write!(
                    out,
                    "    \"{}\": {{\"unit\": \"{}\", \"mean\": {:.6}, \"p50\": {:.6}, \
                     \"p95\": {:.6}, \"min\": {:.6}, \"max\": {:.6}, \"samples\": [",
                    escape_json(name),
                    escape_json(&series.unit),
                    series.mean(),
                    series.quantile(0.50),
                    series.quantile(0.95),
                    series.min(),
                    series.max(),
                );
                for (i, s) in series.samples.iter().enumerate() {
                    let _ = write!(out, "{}{s:.6}", if i > 0 { ", " } else { "" });
                }
                out.push_str("]}");
            }
            out.push_str("\n  },\n");
        }
        let q = &self.quality;
        let _ = write!(
            out,
            "  \"quality\": {{\n    \"max_abs_bias_z\": {:.6},\n    \"optimality_gap\": ",
            q.max_abs_bias_z
        );
        match q.optimality_gap {
            Some(g) => write_json_f64(&mut out, g),
            None => out.push_str("null"),
        }
        let _ = write!(
            out,
            ",\n    \"starved_strata\": {},\n    \"strata\": [",
            q.starved_strata
        );
        for (i, s) in q.strata.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "      {{\"bias_z\": {:.6}, \"candidates\": {}, \"key\": \"{}\", \
                 \"requested\": {}, \"sampled\": {}}}",
                s.bias_z,
                s.candidates,
                escape_json(&s.key),
                s.requested,
                s.sampled
            );
        }
        if !q.strata.is_empty() {
            out.push_str("\n    ");
        }
        out.push_str("]\n  },\n");
        out.push_str("  \"records\": ");
        out.push_str(&indent_after_first_line(&self.records_json, "  "));
        out.push_str("\n}\n");
        out
    }

    /// Parse an artifact back from its JSON rendering.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let value = serde_json::parse_value_str(json).map_err(|e| e.to_string())?;
        let fields = value.as_object().ok_or("artifact is not an object")?;
        let get = |key: &str| {
            serde::find_field(fields, key).ok_or_else(|| format!("artifact is missing {key:?}"))
        };
        let meta = ArtifactMeta::from_value(get("meta")?)?;
        let stage_fields = get("stages")?
            .as_object()
            .ok_or("stages is not an object")?;
        let stage = |key: &str| {
            serde::find_field(stage_fields, key)
                .ok_or_else(|| format!("stages is missing {key:?}"))
                .and_then(as_f64)
        };
        let stages = StageTotals {
            setup_us: stage("setup_us")?,
            map_us: stage("map_us")?,
            shuffle_us: stage("shuffle_us")?,
            reduce_us: stage("reduce_us")?,
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in get("metrics")?
            .as_object()
            .ok_or("metrics is not an object")?
        {
            let mf = m
                .as_object()
                .ok_or_else(|| format!("metric {name:?} is not an object"))?;
            let unit = serde::find_field(mf, "unit")
                .and_then(|u| u.as_str())
                .ok_or_else(|| format!("metric {name:?} has no unit"))?
                .to_string();
            let samples = serde::find_field(mf, "samples")
                .and_then(|s| s.as_array())
                .ok_or_else(|| format!("metric {name:?} has no samples"))?
                .iter()
                .map(as_f64)
                .collect::<Result<Vec<_>, _>>()?;
            metrics.insert(name.clone(), MetricSeries { unit, samples });
        }
        // lenient: pre-v2 artifacts have no quality block; they still
        // parse (compare refuses cross-version diffs on its own)
        let quality = match serde::find_field(fields, "quality") {
            Some(q) => parse_quality(q)?,
            None => QualityBlock::default(),
        };
        let records_json =
            serde_json::to_string_pretty(get("records")?).map_err(|e| e.to_string())?;
        Ok(BenchArtifact {
            meta,
            stages,
            metrics,
            quality,
            records_json,
        })
    }

    /// Write `BENCH_<experiment>.json` under `dir` and return the path.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(Self::file_name(&self.meta.experiment));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Load one artifact file.
    pub fn load(path: &Path) -> Result<Self, String> {
        let body = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::from_json(&body).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Load every `BENCH_*.json` under `dir`, sorted by experiment name.
    pub fn load_dir(dir: &Path) -> Result<Vec<Self>, String> {
        let entries =
            std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let mut artifacts = Vec::new();
        for entry in entries {
            let path = entry.map_err(|e| e.to_string())?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                artifacts.push(Self::load(&path)?);
            }
        }
        artifacts.sort_by(|a, b| a.meta.experiment.cmp(&b.meta.experiment));
        Ok(artifacts)
    }

    /// Number of raw samples across all metrics.
    pub fn total_samples(&self) -> usize {
        self.metrics.values().map(|m| m.samples.len()).sum()
    }
}

/// Parse the `quality` block of an artifact.
fn parse_quality(v: &serde::Value) -> Result<QualityBlock, String> {
    let fields = v.as_object().ok_or("quality is not an object")?;
    let get = |key: &str| {
        serde::find_field(fields, key).ok_or_else(|| format!("quality missing {key:?}"))
    };
    let optimality_gap = match get("optimality_gap")? {
        serde::Value::Null => None,
        other => Some(as_f64(other)?),
    };
    let mut strata = Vec::new();
    for s in get("strata")?
        .as_array()
        .ok_or("quality.strata is not an array")?
    {
        let sf = s.as_object().ok_or("quality stratum is not an object")?;
        let sget = |key: &str| {
            serde::find_field(sf, key).ok_or_else(|| format!("quality stratum missing {key:?}"))
        };
        strata.push(QualityStratum {
            key: sget("key")?
                .as_str()
                .ok_or("quality stratum key is not a string")?
                .to_string(),
            requested: crate::meta::as_u64(sget("requested")?)?,
            candidates: crate::meta::as_u64(sget("candidates")?)?,
            sampled: crate::meta::as_u64(sget("sampled")?)?,
            bias_z: as_f64(sget("bias_z")?)?,
        });
    }
    Ok(QualityBlock {
        strata,
        max_abs_bias_z: as_f64(get("max_abs_bias_z")?)?,
        starved_strata: crate::meta::as_u64(get("starved_strata")?)?,
        optimality_gap,
    })
}

/// Indent every line of `block` after the first by `indent`, so a
/// pretty-printed subdocument embeds cleanly at depth 1.
pub(crate) fn indent_after_first_line(block: &str, indent: &str) -> String {
    let mut lines = block.trim_end().lines();
    let mut out = lines.next().unwrap_or("[]").to_string();
    for line in lines {
        out.push('\n');
        out.push_str(indent);
        out.push_str(line);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::BenchConfig;
    use stratmr_telemetry::{TraceEvent, TracePhase, TraceSink};

    fn toy_artifact() -> BenchArtifact {
        let mut metrics = BTreeMap::new();
        metrics.insert(
            "makespan_us.mqe".to_string(),
            MetricSeries::new("us", vec![100.0, 110.0, 105.0]),
        );
        metrics.insert(
            "cost_ratio.small".to_string(),
            MetricSeries::single("percent", 62.0),
        );
        BenchArtifact {
            meta: ArtifactMeta::fixed_for_tests("unit_test", 42, &BenchConfig::default()),
            stages: StageTotals {
                setup_us: 4.0,
                map_us: 30.0,
                shuffle_us: 5.0,
                reduce_us: 8.0,
            },
            metrics,
            quality: QualityBlock {
                strata: vec![QualityStratum {
                    key: "sqe.s0".to_string(),
                    requested: 10,
                    candidates: 500,
                    sampled: 10,
                    bias_z: 0.0,
                }],
                max_abs_bias_z: 0.0,
                starved_strata: 0,
                optimality_gap: Some(0.05),
            },
            records_json: "[\n  {\n    \"x\": 7\n  }\n]".to_string(),
        }
    }

    #[test]
    fn artifact_round_trips_and_renders_deterministically() {
        let a = toy_artifact();
        let json = a.to_json();
        assert_eq!(json, a.to_json(), "rendering must be stable");
        let back = BenchArtifact::from_json(&json).expect("parses");
        assert_eq!(back, a);
        // python-parseable shape: fixed six-digit floats, sorted metrics
        assert!(json.contains("\"mean\": 105.000000"), "{json}");
        let ratio_at = json.find("cost_ratio.small").unwrap();
        let mqe_at = json.find("makespan_us.mqe").unwrap();
        assert!(ratio_at < mqe_at, "metrics must render sorted: {json}");
    }

    #[test]
    fn quality_block_round_trips_and_tolerates_absence() {
        let a = toy_artifact();
        let json = a.to_json();
        assert!(json.contains("\"quality\": {"), "{json}");
        assert!(json.contains("\"optimality_gap\": 0.050000"), "{json}");
        assert!(json.contains("\"key\": \"sqe.s0\""), "{json}");
        // quality renders between metrics and records
        let q_at = json.find("\"quality\"").unwrap();
        assert!(json.find("\"metrics\"").unwrap() < q_at);
        assert!(q_at < json.find("\"records\"").unwrap());
        let back = BenchArtifact::from_json(&json).expect("parses");
        assert_eq!(back.quality, a.quality);
        // gap-less experiments render the gap as null and round-trip
        let mut no_gap = a.clone();
        no_gap.quality.optimality_gap = None;
        let json2 = no_gap.to_json();
        assert!(json2.contains("\"optimality_gap\": null"), "{json2}");
        assert_eq!(
            BenchArtifact::from_json(&json2).unwrap().quality,
            no_gap.quality
        );
        // a pre-v2 artifact without the block still parses (default)
        let start = json.find("  \"quality\"").unwrap();
        let end = json.find("  \"records\"").unwrap();
        let legacy = format!("{}{}", &json[..start], &json[end..]);
        let parsed = BenchArtifact::from_json(&legacy).expect("legacy parses");
        assert_eq!(parsed.quality, QualityBlock::default());
    }

    #[test]
    fn quality_block_condenses_an_audit_report() {
        let reg = stratmr_telemetry::Registry::new();
        reg.add("sqe.s0.requested", 10);
        reg.add("sqe.s0.candidates", 500);
        reg.add("sqe.s0.sampled", 10);
        reg.add("sqe.s0.rejected", 490);
        reg.add("sqe.s1.requested", 5);
        reg.add("sqe.s1.candidates", 100);
        reg.add("sqe.s1.sampled", 0);
        reg.add("sqe.s1.rejected", 100);
        let report = stratmr_sampling::QualityReport::from_snapshot(&reg.snapshot());
        let block = QualityBlock::from_report(&report, Some(0.1));
        assert_eq!(block.strata.len(), 2);
        assert_eq!(block.strata[0].key, "sqe.s0");
        assert_eq!(block.strata[1].sampled, 0);
        assert_eq!(block.starved_strata, 1, "s1 requested 5, sampled 0");
        assert!(block.max_abs_bias_z > 0.0, "a starved stratum is biased");
        assert_eq!(block.optimality_gap, Some(0.1));
    }

    #[test]
    fn metric_series_summaries() {
        let m = MetricSeries::new("us", vec![3.0, 1.0, 2.0, 100.0]);
        assert_eq!(m.mean(), 26.5);
        assert_eq!(m.quantile(0.5), 2.0);
        assert_eq!(m.quantile(0.95), 100.0);
        assert_eq!(m.min(), 1.0);
        assert_eq!(m.max(), 100.0);
        let empty = MetricSeries::new("us", vec![]);
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.quantile(0.5), 0.0);
    }

    #[test]
    fn stage_totals_sum_critical_paths() {
        let sink = TraceSink::new();
        let ev = |phase, machine, task, start: f64, dur: f64| TraceEvent {
            phase,
            task,
            machine,
            partition: matches!(phase, TracePhase::Shuffle | TracePhase::Reduce).then_some(task),
            attempt: 0,
            failed: false,
            speculative: false,
            start_us: start,
            dur_us: dur,
            records: 1,
            bytes: 10,
        };
        sink.record_job(
            "j",
            4.0,
            47.0,
            2,
            vec![
                ev(TracePhase::Map, 0, 0, 4.0, 10.0),
                ev(TracePhase::Map, 1, 1, 4.0, 30.0),
                ev(TracePhase::Shuffle, 0, 0, 34.0, 5.0),
                ev(TracePhase::Reduce, 0, 0, 39.0, 8.0),
            ],
        );
        let t = StageTotals::from_traces(&sink.jobs());
        assert_eq!(t.setup_us, 4.0);
        assert_eq!(t.map_us, 30.0);
        assert_eq!(t.shuffle_us, 5.0);
        assert_eq!(t.reduce_us, 8.0);
        assert_eq!(t.total_us(), 47.0);
    }

    #[test]
    fn counters_fold_in_as_single_sample_metrics() {
        let reg = stratmr_telemetry::Registry::new();
        reg.add("mr.jobs", 3);
        let mut a = toy_artifact();
        a.add_counters(&reg.snapshot());
        let m = &a.metrics["counter.mr.jobs"];
        assert_eq!(m.unit, "count");
        assert_eq!(m.samples, vec![3.0]);
    }

    #[test]
    fn write_and_load_dir() {
        let dir = std::env::temp_dir().join("stratmr-artifact-test");
        let _ = std::fs::remove_dir_all(&dir);
        let a = toy_artifact();
        let path = a.write_to(&dir).unwrap();
        assert!(path.ends_with("BENCH_unit_test.json"));
        let loaded = BenchArtifact::load_dir(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0], a);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
