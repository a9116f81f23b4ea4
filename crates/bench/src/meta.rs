//! The common `meta` header stamped on every emitted JSON artifact.
//!
//! Telemetry snapshots, Chrome traces, experiment records and
//! `BENCH_*.json` benchmark artifacts all carry the same self-describing
//! header: schema version, experiment name, seed, crate version, git
//! SHA, the full `STRATMR_*` scale configuration and a `host` subobject
//! for the (few) environment facts that are not a pure function of the
//! code — cargo profile and target OS. Everything outside `host` is
//! deterministic for a fixed seed and commit, so two artifacts are
//! comparable exactly when their non-`host` meta matches.

use crate::env::BenchConfig;
use stratmr_telemetry::{Layout, Writer};

/// Version of the benchmark artifact schema. Bump on any change to the
/// key layout of `BENCH_*.json` (see DESIGN.md, "Schema versioning");
/// `bench_compare` refuses to diff artifacts of different versions.
///
/// v2: every artifact embeds a `quality` block (per-stratum sampling
/// audit + optimality gap) between `metrics` and `records`.
///
/// v3: `config` gains a `fault_seed` key (the `--faults` seed, `null`
/// when unset) and the robustness experiment's records/metrics carry
/// fault-recovery measurements (wasted-work fraction, speculation win
/// rate, re-executed map tasks).
pub const SCHEMA_VERSION: u32 = 3;

/// The self-describing header (see module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct ArtifactMeta {
    /// Artifact schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Experiment name (`fig7_running_times`, …).
    pub experiment: String,
    /// Dataset seed the experiment ran on.
    pub seed: u64,
    /// `stratmr-bench` crate version.
    pub crate_version: String,
    /// Git commit of the tree that produced the artifact (`unknown`
    /// outside a git checkout).
    pub git_sha: String,
    /// Scale configuration the run used.
    pub config: BenchConfig,
    /// Host-dependent facts: cargo profile and target OS. Segregated so
    /// everything *outside* this subobject is byte-stable for a fixed
    /// seed and commit.
    pub host: HostMeta,
}

/// The host-dependent part of the header.
#[derive(Clone, Debug, PartialEq)]
pub struct HostMeta {
    /// `release` or `debug`.
    pub cargo_profile: String,
    /// `std::env::consts::OS` of the producing binary.
    pub os: String,
}

impl ArtifactMeta {
    /// Capture the header for `experiment` from the running process:
    /// git SHA via `GITHUB_SHA` or `git rev-parse`, crate version and
    /// profile from the build, configuration from `config`.
    pub fn capture(experiment: &str, seed: u64, config: &BenchConfig) -> Self {
        ArtifactMeta {
            schema_version: SCHEMA_VERSION,
            experiment: experiment.to_string(),
            seed,
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
            git_sha: detect_git_sha(),
            config: config.clone(),
            host: HostMeta {
                cargo_profile: if cfg!(debug_assertions) {
                    "debug".to_string()
                } else {
                    "release".to_string()
                },
                os: std::env::consts::OS.to_string(),
            },
        }
    }

    /// A fully fixed header for golden-file tests: every field —
    /// including the git SHA and the `host` subobject — is a constant,
    /// so the rendered bytes are pinned.
    pub fn fixed_for_tests(experiment: &str, seed: u64, config: &BenchConfig) -> Self {
        ArtifactMeta {
            schema_version: SCHEMA_VERSION,
            experiment: experiment.to_string(),
            seed,
            crate_version: "0.0.0-test".to_string(),
            git_sha: "0000000000000000000000000000000000000000".to_string(),
            config: config.clone(),
            host: HostMeta {
                cargo_profile: "test".to_string(),
                os: "test".to_string(),
            },
        }
    }

    /// Write the header as the `meta` field of the open object of `w`:
    /// one line, fixed key order. Every artifact writes it first.
    pub(crate) fn write_field(&self, w: &mut Writer) {
        let c = &self.config;
        w.key("meta").object(Layout::Inline, |w| {
            w.field("schema_version", self.schema_version)
                .field("experiment", &self.experiment)
                .field("seed", self.seed)
                .field("crate_version", &self.crate_version)
                .field("git_sha", &self.git_sha);
            w.key("config").object(Layout::Inline, |w| {
                w.field("fault_seed", c.fault_seed)
                    .field("machines", c.machines)
                    .field("population", c.population)
                    .field("runs", c.runs)
                    .key("scales")
                    .list(&c.scales)
                    .field("splits", c.splits)
                    .field("uniform", c.uniform);
            });
            w.key("host").object(Layout::Inline, |w| {
                w.field("cargo_profile", &self.host.cargo_profile)
                    .field("os", &self.host.os);
            });
        });
    }

    /// The non-`host` part of the header as one key string — two
    /// artifacts are comparable when these strings agree on
    /// `schema_version`, `experiment` and `config` (the git SHA is the
    /// thing being compared, so it may differ).
    pub(crate) fn comparability_key(&self) -> String {
        let c = &self.config;
        format!(
            "v{} {} pop={} runs={} scales={:?} machines={} splits={} uniform={} faults={:?}",
            self.schema_version,
            self.experiment,
            c.population,
            c.runs,
            c.scales,
            c.machines,
            c.splits,
            c.uniform,
            c.fault_seed
        )
    }

    /// Parse the header back out of a JSON `meta` value (as written by
    /// [`ArtifactMeta::write_field`]).
    pub(crate) fn from_value(v: &serde::Value) -> Result<Self, String> {
        let fields = v.as_object().ok_or("meta is not an object")?;
        let get = |key: &str| {
            serde::find_field(fields, key).ok_or_else(|| format!("meta is missing {key:?}"))
        };
        let config_fields = get("config")?
            .as_object()
            .ok_or("meta.config is not an object")?;
        let cfg_get = |key: &str| {
            serde::find_field(config_fields, key)
                .ok_or_else(|| format!("meta.config is missing {key:?}"))
        };
        let host_fields = get("host")?
            .as_object()
            .ok_or("meta.host is not an object")?;
        let scales = cfg_get("scales")?
            .as_array()
            .ok_or("meta.config.scales is not an array")?
            .iter()
            .map(|s| as_u64(s).map(|v| v as usize))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ArtifactMeta {
            schema_version: as_u64(get("schema_version")?)? as u32,
            experiment: as_string(get("experiment")?)?,
            seed: as_u64(get("seed")?)?,
            crate_version: as_string(get("crate_version")?)?,
            git_sha: as_string(get("git_sha")?)?,
            config: BenchConfig {
                population: as_u64(cfg_get("population")?)? as usize,
                runs: as_u64(cfg_get("runs")?)? as usize,
                scales,
                machines: as_u64(cfg_get("machines")?)? as usize,
                splits: as_u64(cfg_get("splits")?)? as usize,
                uniform: as_bool(cfg_get("uniform")?)?,
                fault_seed: match serde::find_field(config_fields, "fault_seed") {
                    None | Some(serde::Value::Null) => None,
                    Some(v) => Some(as_u64(v)?),
                },
            },
            host: HostMeta {
                cargo_profile: as_string(
                    serde::find_field(host_fields, "cargo_profile")
                        .ok_or("meta.host is missing cargo_profile")?,
                )?,
                os: as_string(
                    serde::find_field(host_fields, "os").ok_or("meta.host is missing os")?,
                )?,
            },
        })
    }
}

pub(crate) fn as_u64(v: &serde::Value) -> Result<u64, String> {
    match v {
        serde::Value::UInt(u) => Ok(*u),
        serde::Value::Int(i) if *i >= 0 => Ok(*i as u64),
        serde::Value::Float(f) if *f >= 0.0 && f.fract() == 0.0 => Ok(*f as u64),
        other => Err(format!("expected unsigned integer, got {}", other.kind())),
    }
}

pub(crate) fn as_f64(v: &serde::Value) -> Result<f64, String> {
    match v {
        serde::Value::Float(f) => Ok(*f),
        serde::Value::Int(i) => Ok(*i as f64),
        serde::Value::UInt(u) => Ok(*u as f64),
        other => Err(format!("expected number, got {}", other.kind())),
    }
}

fn as_bool(v: &serde::Value) -> Result<bool, String> {
    match v {
        serde::Value::Bool(b) => Ok(*b),
        other => Err(format!("expected bool, got {}", other.kind())),
    }
}

fn as_string(v: &serde::Value) -> Result<String, String> {
    v.as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("expected string, got {}", v.kind()))
}

/// Commit of the working tree: `GITHUB_SHA` when set (CI), else
/// `git rev-parse HEAD` run from the crate directory, else `unknown`.
fn detect_git_sha() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.is_empty() {
            return sha;
        }
    }
    std::process::Command::new("git")
        .args(["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_json_round_trips_through_the_parser() {
        let meta = ArtifactMeta::fixed_for_tests("fig7", 0xDB1F, &BenchConfig::default());
        let json = stratmr_telemetry::json::document("  ", |w| meta.write_field(w));
        assert!(
            json.starts_with(&format!(
                "{{\n  \"meta\": {{\"schema_version\": {SCHEMA_VERSION}"
            )),
            "{json}"
        );
        assert_eq!(json.lines().count(), 3, "meta must be single-line: {json}");
        let value = serde_json::parse_value_str(&json).expect("meta parses");
        let fields = value.as_object().expect("an object");
        let back = ArtifactMeta::from_value(serde::find_field(fields, "meta").unwrap())
            .expect("meta round-trips");
        assert_eq!(back, meta);
    }

    #[test]
    fn captured_meta_reflects_the_environment() {
        let cfg = BenchConfig {
            population: 123,
            ..BenchConfig::default()
        };
        let meta = ArtifactMeta::capture("table2_cost_ratio", 7, &cfg);
        assert_eq!(meta.schema_version, SCHEMA_VERSION);
        assert_eq!(meta.experiment, "table2_cost_ratio");
        assert_eq!(meta.seed, 7);
        assert_eq!(meta.config.population, 123);
        assert!(!meta.git_sha.is_empty());
        assert_eq!(meta.host.os, std::env::consts::OS);
    }

    #[test]
    fn comparability_key_ignores_sha_but_not_config() {
        let cfg = BenchConfig::default();
        let mut a = ArtifactMeta::fixed_for_tests("fig7", 1, &cfg);
        let mut b = a.clone();
        b.git_sha = "deadbeef".into();
        b.host.os = "mars".into();
        assert_eq!(a.comparability_key(), b.comparability_key());
        a.config.population = 999;
        assert_ne!(a.comparability_key(), b.comparability_key());
    }
}
