//! Shared experiment environment: datasets, clusters and scale knobs —
//! plus the [`CliArgs`] flag parsing of the bench runners.

use crate::artifact::BenchArtifact;
use crate::experiments::{self, ExpOutput, Experiment, Obs};
use crate::report;
use std::path::{Path, PathBuf};
use stratmr_mapreduce::InputSplit;
use stratmr_population::dblp::{DblpConfig, DblpGenerator};
use stratmr_population::uniform::generate_uniform;
use stratmr_population::{Dataset, Individual, Placement};
use stratmr_query::{GroupSpec, MssdQuery, QueryGenerator};
use stratmr_telemetry::{json, TraceSink};

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
    /// (the robustness experiment's crash/recovery conditions), from
    /// `STRATMR_FAULT_SEED`. `None` uses each experiment's fixed
    /// default seed.
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

    /// Generate one paper-style MSSD query group with proportional
    /// frequency allocation.
    pub fn group(&self, spec: &GroupSpec, sample_size: usize, seed: u64) -> MssdQuery {
        self.qgen
            .generate_paper_group_on(spec, sample_size, self.data.tuples(), seed)
    }
}

/// The two runners that parse [`CliArgs`]; each accepts only its own
/// flags.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Runner {
    /// `bench_suite`: `--out`, `--telemetry`, `--trace`, `--uniform`
    /// and experiment names.
    Suite,
    /// `explain`: `--explain`, `--exact` and `--uniform`.
    Explain,
}

impl Runner {
    fn usage(self) -> &'static str {
        match self {
            Runner::Suite => {
                "usage: bench_suite [--out <dir>] [--telemetry <out.json>] \
                 [--trace <out.json>] [--uniform] [experiment ...]"
            }
            Runner::Explain => "usage: explain [--exact] [--uniform] [--explain <out.json>]",
        }
    }
}

/// The command-line flags of a bench runner, parsed once.
///
/// `bench_suite` runs the selected [`experiments`] (all of them when
/// none is named) and [`CliArgs::finish`] writes each one's outputs.
/// `--telemetry <out.json>` and `--trace <out.json>` need exactly one
/// selected experiment: they write its telemetry snapshot (counters,
/// histograms, span call counts, host wall times) and its Chrome
/// trace-event JSON (loadable in Perfetto) with a per-job
/// critical-path/skew summary on stdout. The `explain`
/// runner's `--explain <out.json>` writes the plan EXPLAIN artifact
/// (see [`crate::explain`]). Every file is stamped with the common
/// [`ArtifactMeta`](crate::ArtifactMeta) header.
#[derive(Default)]
pub struct CliArgs {
    /// `--out <dir>`: where `BENCH_<experiment>.json` artifacts go.
    pub out: Option<PathBuf>,
    /// `--telemetry <out.json>`: telemetry snapshot path.
    pub telemetry: Option<PathBuf>,
    /// `--trace <out.json>`: Chrome trace path.
    pub trace: Option<PathBuf>,
    /// `--explain <out.json>`: plan-EXPLAIN + quality-audit path.
    pub explain: Option<PathBuf>,
    /// `--exact`: explain the exact IP instead of the LP relaxation.
    pub exact: bool,
    /// `--uniform`: use the §6.2.1 uniform synthetic dataset.
    pub uniform: bool,
    /// The selected experiments, in the order named (all of
    /// [`experiments::ALL`] when none is; empty for `explain`).
    pub experiments: Vec<&'static Experiment>,
}

impl CliArgs {
    /// Parse `runner`'s flags from the process arguments. A usage error
    /// prints a message naming the problem and exits with status 2.
    pub fn parse(runner: Runner) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::from_args(runner, &args).unwrap_or_else(|e| usage_exit(&e))
    }

    /// [`CliArgs::parse`] over an explicit argument list (without the
    /// program name). Flags take their operand as the next argument or
    /// after `=`; a flag the runner does not accept, a missing operand,
    /// an unknown experiment, and `--telemetry`/`--trace` without
    /// exactly one experiment are errors.
    fn from_args(runner: Runner, args: &[String]) -> Result<Self, String> {
        let usage = runner.usage();
        let mut cli = CliArgs::default();
        let mut names = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((flag, v)) if flag.starts_with("--") => (flag, Some(v)),
                _ => (arg.as_str(), None),
            };
            let mut operand = |what: &str| {
                inline
                    .or_else(|| it.next().map(String::as_str))
                    .map(PathBuf::from)
                    .ok_or_else(|| format!("usage: {flag} {what}"))
            };
            match (runner, flag) {
                (_, "--uniform") if inline.is_none() => cli.uniform = true,
                (Runner::Suite, "--out") => cli.out = Some(operand("<dir>")?),
                (Runner::Suite, "--telemetry") => cli.telemetry = Some(operand("<out.json>")?),
                (Runner::Suite, "--trace") => cli.trace = Some(operand("<out.json>")?),
                (Runner::Explain, "--explain") => cli.explain = Some(operand("<out.json>")?),
                (Runner::Explain, "--exact") if inline.is_none() => cli.exact = true,
                (Runner::Suite, name) if !name.starts_with('-') => names.push(name),
                _ => return Err(format!("{usage} (unknown argument {arg:?})")),
            }
        }
        for name in names {
            let exp = experiments::ALL.iter().find(|e| e.name == name);
            cli.experiments.push(exp.ok_or_else(|| {
                let all: Vec<&str> = experiments::ALL.iter().map(|e| e.name).collect();
                format!(
                    "{usage} (unknown experiment {name:?}; available: {})",
                    all.join(", ")
                )
            })?);
        }
        if (cli.telemetry.is_some() || cli.trace.is_some()) && cli.experiments.len() != 1 {
            return Err(format!(
                "{usage} (--telemetry and --trace need exactly one experiment, got {})",
                cli.experiments.len()
            ));
        }
        if runner == Runner::Suite && cli.experiments.is_empty() {
            cli.experiments = experiments::ALL.iter().collect();
        }
        Ok(cli)
    }

    /// Build the experiment environment from `STRATMR_*` variables plus
    /// the `--uniform` flag.
    pub fn bench_env(&self) -> BenchEnv {
        let mut config = BenchConfig::from_env();
        config.uniform = self.uniform;
        BenchEnv::new(config)
    }

    /// The single write path for one `bench_suite` experiment run: its
    /// `BENCH_<experiment>.json` artifact under `out_dir`, the
    /// experiment record under `target/experiments/` (the only JSON
    /// that keeps host wall times), then the trace and telemetry JSON
    /// if requested, from the sinks of `obs` — each stamped with the
    /// artifact's meta header.
    pub fn finish(&self, out: &ExpOutput, artifact: &BenchArtifact, obs: &Obs, out_dir: &Path) {
        let meta = &artifact.meta;
        written("artifact", out_dir, artifact.write_to(out_dir));
        let record = report::write_record_json(&out.record_name, meta, &out.records_json);
        written("record", Path::new(&out.record_name), record);
        if let (Some(path), Some(sink)) = (&self.trace, &obs.trace) {
            print!("{}", report::render_trace_summary(&sink.jobs()));
            let body = json::document(TraceSink::JSON_INDENT, |w| {
                meta.write_field(w);
                sink.write_fields(w);
            });
            write_file("trace", path, &body);
        }
        if let (Some(path), Some(registry)) = (&self.telemetry, &obs.registry) {
            let snapshot = registry.snapshot();
            let body = json::document(json::INDENT, |w| {
                meta.write_field(w);
                snapshot.write_fields(w);
            });
            write_file("telemetry", path, &body);
        }
    }
}

/// Report a write as `what: <path>`. An unwritable `target` is reported
/// on stderr and exits with status 1, so a scripted run notices the
/// missing file.
fn written(what: &str, target: &Path, result: std::io::Result<PathBuf>) {
    match result {
        Ok(path) => println!("{what}: {}", path.display()),
        Err(e) => {
            eprintln!("error: cannot write {what} to {}: {e}", target.display());
            std::process::exit(1);
        }
    }
}

/// Write `body` to `path`, reporting like the suite's other outputs.
pub fn write_file(what: &str, path: &Path, body: &str) {
    written(what, path, std::fs::write(path, body).map(|()| path.into()));
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn parse_err(runner: Runner, list: &[&str]) -> String {
        CliArgs::from_args(runner, &args(list)).err().unwrap()
    }

    fn names(cli: &CliArgs) -> Vec<&'static str> {
        cli.experiments.iter().map(|e| e.name).collect()
    }

    #[test]
    fn flags_take_separate_or_inline_operands() {
        let cli = CliArgs::from_args(
            Runner::Suite,
            &args(&[
                "--telemetry",
                "t.json",
                "--trace=tr.json",
                "--out",
                "dir",
                "--uniform",
                "fig7_running_times",
            ]),
        )
        .unwrap();
        assert_eq!(cli.telemetry, Some(PathBuf::from("t.json")));
        assert_eq!(cli.trace, Some(PathBuf::from("tr.json")));
        assert_eq!(cli.out, Some(PathBuf::from("dir")));
        assert!(cli.uniform);
        assert_eq!(names(&cli), ["fig7_running_times"]);
        let cli =
            CliArgs::from_args(Runner::Explain, &args(&["--explain=e.json", "--exact"])).unwrap();
        assert_eq!(cli.explain, Some(PathBuf::from("e.json")));
        assert!(cli.exact);
        assert!(!cli.uniform);
        assert!(cli.experiments.is_empty());
    }

    #[test]
    fn suite_selects_named_experiments_or_all() {
        let cli = CliArgs::from_args(Runner::Suite, &args(&[])).unwrap();
        assert_eq!(cli.experiments.len(), experiments::ALL.len());
        let cli = CliArgs::from_args(
            Runner::Suite,
            &args(&["robustness", "--out=o", "table1_dataset"]),
        )
        .unwrap();
        assert_eq!(names(&cli), ["robustness", "table1_dataset"]);
    }

    #[test]
    fn missing_operand_names_the_flag() {
        let cases = [
            (Runner::Suite, "--telemetry"),
            (Runner::Suite, "--trace"),
            (Runner::Suite, "--out"),
            (Runner::Explain, "--explain"),
        ];
        for (runner, flag) in cases {
            let err = parse_err(runner, &["--uniform", flag]);
            assert!(err.starts_with(&format!("usage: {flag} ")), "{err}");
        }
    }

    #[test]
    fn unknown_flags_are_usage_errors() {
        for (runner, bad) in [
            (Runner::Suite, "--telemtry"),
            (Runner::Suite, "--faults"),
            (Runner::Suite, "--explain"),
            (Runner::Suite, "--exact"),
            (Runner::Suite, "--uniform=1"),
            (Runner::Suite, "-x"),
            (Runner::Explain, "--telemetry"),
            (Runner::Explain, "--trace"),
            (Runner::Explain, "--out"),
            (Runner::Explain, "optimality"),
        ] {
            let err = parse_err(runner, &[bad, "t.json"]);
            assert!(err.starts_with(runner.usage()), "{err}");
            assert!(err.contains(&format!("unknown argument {bad:?}")), "{err}");
        }
    }

    #[test]
    fn unknown_experiment_lists_the_available_ones() {
        let err = parse_err(Runner::Suite, &["fig9"]);
        assert!(err.starts_with("usage: bench_suite "), "{err}");
        assert!(err.contains("unknown experiment \"fig9\""), "{err}");
        assert!(err.contains("robustness"), "{err}");
    }

    #[test]
    fn telemetry_and_trace_need_exactly_one_experiment() {
        for flag in ["--telemetry", "--trace"] {
            for selected in [&[][..], &["table1_dataset", "fig7_running_times"]] {
                let mut list = vec![flag, "t.json"];
                list.extend_from_slice(selected);
                let err = parse_err(Runner::Suite, &list);
                assert!(err.starts_with("usage: bench_suite "), "{err}");
                assert!(err.contains("exactly one experiment"), "{err}");
            }
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
