//! Shared experiment environment: datasets, clusters and scale knobs —
//! plus the [`CliArgs`] flag parsing every bench binary shares.

use crate::experiments::{ExpOutput, Obs};
use crate::explain::{self, ExplainFile};
use crate::meta::ArtifactMeta;
use crate::report;
use crate::telemetry::{self, TelemetrySink, TraceFile};
use stratmr_mapreduce::InputSplit;
use stratmr_population::dblp::{DblpConfig, DblpGenerator};
use stratmr_population::uniform::generate_uniform;
use stratmr_population::{Dataset, Individual, Placement};
use stratmr_query::{GroupSpec, MssdQuery, QueryGenerator};
use stratmr_telemetry::{Registry, TraceSink};

/// Seed every experiment dataset is generated from.
pub const DATA_SEED: u64 = 0xDB1F;

/// Scale configuration, read from the environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchConfig {
    /// Number of individuals in the synthetic population.
    pub population: usize,
    /// Repetitions for averaged statistics.
    pub runs: usize,
    /// Sample sizes ("scales") per SSD query.
    pub scales: Vec<usize>,
    /// Machines holding the data (the paper's 10 slave nodes).
    pub machines: usize,
    /// Input splits.
    pub splits: usize,
    /// Use the uniform synthetic dataset of §6.2.1 instead of the
    /// DBLP-like one.
    pub uniform: bool,
    /// Seed for the fault plans injected by fault-aware experiments
    /// (the robustness experiment's crash/recovery conditions). `None`
    /// uses each experiment's fixed default seed.
    pub fault_seed: Option<u64>,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            population: 100_000,
            runs: 20,
            scales: vec![100, 1_000, 10_000],
            machines: 10,
            splits: 40,
            uniform: false,
            fault_seed: None,
        }
    }
}

impl BenchConfig {
    /// Read the configuration from `STRATMR_*` environment variables,
    /// falling back to the defaults. A malformed value prints a usage
    /// message naming the variable and exits with status 2.
    pub fn from_env() -> Self {
        Self::from_vars(|name| std::env::var(name).ok()).unwrap_or_else(|e| usage_exit(&e))
    }

    /// [`BenchConfig::from_env`] over an arbitrary variable lookup:
    /// unset variables keep their defaults, and a value that does not
    /// parse is an error naming the variable.
    fn from_vars(var: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let mut cfg = Self::default();
        let count = |name: &str| -> Result<Option<usize>, String> {
            var(name)
                .map(|v| parse_number(&v, &format!("{name}=<count>")))
                .transpose()
        };
        if let Some(v) = count("STRATMR_POP")? {
            cfg.population = v;
        }
        if let Some(v) = count("STRATMR_RUNS")? {
            cfg.runs = v;
        }
        if let Some(s) = var("STRATMR_SCALES") {
            cfg.scales = s
                .split(',')
                .map(|p| parse_number(p, "STRATMR_SCALES=<size>[,<size>...]"))
                .collect::<Result<_, _>>()?;
        }
        if let Some(v) = count("STRATMR_MACHINES")? {
            cfg.machines = v;
        }
        cfg.fault_seed = var("STRATMR_FAULT_SEED")
            .map(|v| parse_number(&v, "STRATMR_FAULT_SEED=<seed>"))
            .transpose()?;
        Ok(cfg)
    }
}

/// Parse an unsigned integer, or fail with a usage message quoting
/// `usage` and the offending value.
fn parse_number<T: std::str::FromStr>(value: &str, usage: &str) -> Result<T, String> {
    value
        .trim()
        .parse()
        .map_err(|_| format!("usage: {usage} (got {value:?}, not an unsigned integer)"))
}

/// The operand of the first `--flag <value>` or `--flag=<value>` in
/// `args` (the arguments after the program name). `Ok(None)` when the
/// flag is absent; an error naming `usage` when it is the last argument
/// and so has no operand.
fn flag_value(args: &[String], flag: &str, usage: &str) -> Result<Option<String>, String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            return match it.next() {
                Some(v) => Ok(Some(v.clone())),
                None => Err(format!("usage: {flag} {usage}")),
            };
        }
        if let Some(v) = a.strip_prefix(flag).and_then(|v| v.strip_prefix('=')) {
            return Ok(Some(v.to_string()));
        }
    }
    Ok(None)
}

/// Print a usage error and exit with status 2.
fn usage_exit(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// A prepared experiment environment: one population, pre-partitioned,
/// plus a query generator.
pub struct BenchEnv {
    /// The configuration the environment was built from.
    pub config: BenchConfig,
    /// The full population (for proportional query generation and ground
    /// truth).
    pub data: Dataset,
    /// MapReduce input splits of the population.
    pub splits: Vec<InputSplit<Individual>>,
    qgen: QueryGenerator,
}

impl BenchEnv {
    /// Build the environment: generate the population and partition it.
    pub fn new(config: BenchConfig) -> Self {
        let data = if config.uniform {
            generate_uniform(config.population, DATA_SEED, 100_000)
        } else {
            DblpGenerator::new(DblpConfig::default()).generate(config.population, DATA_SEED)
        };
        let dist = data.distribute(config.machines, config.splits, Placement::RoundRobin);
        let splits = stratmr_sampling::to_input_splits(&dist);
        let qgen = QueryGenerator::new(DblpGenerator::schema());
        Self {
            config,
            data,
            splits,
            qgen,
        }
    }

    /// Build from the environment variables.
    pub fn from_env() -> Self {
        Self::new(BenchConfig::from_env())
    }

    /// Generate one paper-style MSSD query group with proportional
    /// frequency allocation.
    pub fn group(&self, spec: &GroupSpec, sample_size: usize, seed: u64) -> MssdQuery {
        self.qgen
            .generate_paper_group_on(spec, sample_size, self.data.tuples(), seed)
    }
}

/// The command-line flags shared by every bench binary, parsed once:
/// `--telemetry <out.json>`, `--trace <out.json>`, `--explain
/// <out.json>`, `--uniform` and `--faults <seed>`.
///
/// A binary's `main` is then three steps — parse, run the experiment
/// from [`crate::experiments`] with [`CliArgs::obs`], and
/// [`CliArgs::finish`] — so flag handling and the JSON write path
/// (records, telemetry, trace, each stamped with the common
/// [`ArtifactMeta`] header) exist exactly once. CPS-capable binaries
/// additionally call [`CliArgs::finish_explain`] to honor `--explain`.
#[derive(Default)]
pub struct CliArgs {
    /// `--telemetry <out.json>`: registry + output path.
    pub telemetry: Option<TelemetrySink>,
    /// `--trace <out.json>`: trace sink + output path.
    pub trace: Option<TraceFile>,
    /// `--explain <out.json>`: plan-EXPLAIN + quality-audit output path.
    pub explain: Option<ExplainFile>,
    /// `--uniform`: use the §6.2.1 uniform synthetic dataset.
    pub uniform: bool,
    /// `--faults <seed>`: seed for injected fault plans (overrides
    /// `STRATMR_FAULT_SEED`).
    pub faults: Option<u64>,
}

impl CliArgs {
    /// Parse the shared flags from the process arguments. A missing or
    /// malformed operand prints a usage message naming the flag and
    /// exits with status 2.
    pub fn parse() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::from_args(&args).unwrap_or_else(|e| usage_exit(&e))
    }

    /// [`CliArgs::parse`] over an explicit argument list (without the
    /// program name). Flags other than the shared ones are ignored.
    fn from_args(args: &[String]) -> Result<Self, String> {
        let path = |flag: &str| flag_value(args, flag, "<out.json>");
        let faults = flag_value(args, "--faults", "<seed>")?
            .map(|v| parse_number(&v, "--faults <seed>"))
            .transpose()?;
        Ok(CliArgs {
            telemetry: path("--telemetry")?.map(|p| TelemetrySink {
                registry: Registry::new(),
                path: p.into(),
            }),
            trace: path("--trace")?.map(|p| TraceFile {
                sink: TraceSink::new(),
                path: p.into(),
            }),
            explain: path("--explain")?.map(|p| ExplainFile { path: p.into() }),
            uniform: args.iter().any(|a| a == "--uniform"),
            faults,
        })
    }

    /// Honor `--explain` on a CPS-capable binary: run the standard
    /// explain group with `solver` and write the `{meta, plan, quality}`
    /// artifact, stamped as experiment `name`. No-op without the flag —
    /// the explain run costs one extra CPS solve, so it only happens
    /// when asked for.
    pub fn finish_explain(
        &mut self,
        name: &str,
        env: &BenchEnv,
        solver: stratmr_sampling::CpsConfig,
    ) {
        let Some(file) = self.explain.take() else {
            return;
        };
        let meta = ArtifactMeta::capture(name, DATA_SEED, &env.config);
        let out = explain::run_explain(env, solver, &meta);
        explain::finish(Some(file), &out);
    }

    /// Build the experiment environment from `STRATMR_*` variables plus
    /// the `--uniform` flag.
    pub fn bench_env(&self) -> BenchEnv {
        let mut config = BenchConfig::from_env();
        config.uniform = self.uniform;
        if self.faults.is_some() {
            config.fault_seed = self.faults;
        }
        BenchEnv::new(config)
    }

    /// The observability context the flags requested.
    pub fn obs(&self) -> Obs {
        Obs {
            registry: self.telemetry.as_ref().map(|t| t.registry.clone()),
            trace: self.trace.as_ref().map(|t| t.sink.clone()),
        }
    }

    /// The single write path for everything a bench binary emits: the
    /// experiment record under `target/experiments/`, then the trace
    /// and telemetry JSON if requested — each stamped with the common
    /// meta header.
    pub fn finish(self, out: &ExpOutput, config: &BenchConfig) {
        let meta = ArtifactMeta::capture(out.name, DATA_SEED, config);
        match report::write_record_json(&out.record_name, &meta, &out.records_json) {
            Ok(path) => println!("record: {}", path.display()),
            Err(e) => {
                eprintln!("error: cannot write record {}: {e}", out.record_name);
                std::process::exit(1);
            }
        }
        telemetry::finish_trace(self.trace, &meta);
        telemetry::finish(self.telemetry, &meta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn env_builds_and_generates_groups() {
        let cfg = BenchConfig {
            population: 2_000,
            runs: 1,
            scales: vec![50],
            machines: 2,
            splits: 4,
            uniform: false,
            fault_seed: None,
        };
        let env = BenchEnv::new(cfg);
        assert_eq!(env.data.len(), 2_000);
        assert_eq!(env.splits.len(), 4);
        let mssd = env.group(&GroupSpec::SMALL, 50, 1);
        assert_eq!(mssd.len(), 3);
        assert_eq!(mssd.queries()[0].total_frequency(), 50);
    }

    #[test]
    fn uniform_env_uses_uniform_generator() {
        let cfg = BenchConfig {
            population: 1_000,
            uniform: true,
            machines: 1,
            splits: 2,
            ..BenchConfig::default()
        };
        let env = BenchEnv::new(cfg);
        assert_eq!(env.data.len(), 1_000);
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    fn vars<'a>(list: &'a [(&str, &str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |name| {
            list.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        }
    }

    #[test]
    fn flags_take_separate_or_inline_operands() {
        let cli = CliArgs::from_args(&args(&[
            "--telemetry",
            "t.json",
            "--trace=tr.json",
            "--faults",
            "7",
            "--uniform",
        ]))
        .unwrap();
        assert_eq!(cli.telemetry.unwrap().path, PathBuf::from("t.json"));
        assert_eq!(cli.trace.unwrap().path, PathBuf::from("tr.json"));
        assert!(cli.explain.is_none());
        assert_eq!(cli.faults, Some(7));
        assert!(cli.uniform);
        let cli = CliArgs::from_args(&args(&["--explain=e.json", "--faults=9"])).unwrap();
        assert_eq!(cli.explain.unwrap().path, PathBuf::from("e.json"));
        assert_eq!(cli.faults, Some(9));
        assert!(!cli.uniform);
    }

    #[test]
    fn missing_operand_names_the_flag() {
        for flag in ["--telemetry", "--trace", "--explain", "--faults"] {
            let err = CliArgs::from_args(&args(&["--uniform", flag]))
                .err()
                .unwrap();
            assert!(err.starts_with(&format!("usage: {flag} ")), "{err}");
        }
    }

    #[test]
    fn malformed_fault_seed_is_an_error() {
        for bad in [
            &["--faults", "abc"][..],
            &["--faults=-1"],
            &["--faults", ""],
        ] {
            let err = CliArgs::from_args(&args(bad)).err().unwrap();
            assert!(err.contains("--faults <seed>"), "{err}");
        }
    }

    #[test]
    fn env_values_parse_and_default() {
        assert_eq!(
            BenchConfig::from_vars(vars(&[])).unwrap(),
            BenchConfig::default()
        );
        let cfg = BenchConfig::from_vars(vars(&[
            ("STRATMR_POP", "2000"),
            ("STRATMR_RUNS", "3"),
            ("STRATMR_SCALES", "50, 100"),
            ("STRATMR_MACHINES", "4"),
            ("STRATMR_FAULT_SEED", "11"),
        ]))
        .unwrap();
        assert_eq!(cfg.population, 2000);
        assert_eq!(cfg.runs, 3);
        assert_eq!(cfg.scales, vec![50, 100]);
        assert_eq!(cfg.machines, 4);
        assert_eq!(cfg.fault_seed, Some(11));
    }

    #[test]
    fn malformed_env_values_name_the_variable() {
        let cases: [(&[(&str, &str)], &str); 5] = [
            (&[("STRATMR_POP", "2k")], "STRATMR_POP="),
            (&[("STRATMR_SCALES", "50,x")], "STRATMR_SCALES="),
            (&[("STRATMR_SCALES", "")], "STRATMR_SCALES="),
            (&[("STRATMR_RUNS", "-1")], "STRATMR_RUNS="),
            (&[("STRATMR_FAULT_SEED", "0x1")], "STRATMR_FAULT_SEED="),
        ];
        for (set, name) in cases {
            let err = BenchConfig::from_vars(vars(set)).err().unwrap();
            assert!(err.starts_with(&format!("usage: {name}")), "{err}");
        }
    }
}
