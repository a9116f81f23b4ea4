//! The `stratmr` command-line tool.
//!
//! Subcommands:
//!
//! * `gen`    — generate a synthetic population CSV (DBLP-like or uniform);
//! * `info`   — summarize a population CSV;
//! * `sample` — answer one stratified-sampling design (MR-SQE);
//! * `mssd`   — answer several surveys in parallel (MR-MQE, or MR-CPS
//!   with `--optimize`).
//!
//! Designs are JSON files with textual formulas (see [`SsdSpec`]):
//!
//! ```json
//! {
//!   "strata": [
//!     { "where": "fy < 1990", "take": 20 },
//!     { "where": "fy >= 1990 && nop >= 50", "take": 30 }
//!   ]
//! }
//! ```

use serde::Deserialize;
use std::error::Error;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::PathBuf;
use stratmr_mapreduce::Cluster;
use stratmr_population::dblp::{DblpConfig, DblpGenerator};
use stratmr_population::export::{read_csv, write_csv};
use stratmr_population::uniform::generate_uniform;
use stratmr_population::{Dataset, Placement, Schema};
use stratmr_query::{
    check_disjoint_static, parse_formula, CostModel, MssdQuery, SharingBase, SsdAnswer, SsdQuery,
    StaticCheck, StratumConstraint, MAX_SURVEYS,
};
use stratmr_sampling::cps::{try_mr_cps_on_splits, CpsConfig};
use stratmr_sampling::mqe::try_mr_mqe_on_splits;
use stratmr_sampling::sqe::try_mr_sqe_on_splits;
use stratmr_sampling::to_input_splits;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate a population CSV.
    Gen {
        /// Output file.
        out: PathBuf,
        /// Number of individuals.
        n: usize,
        /// RNG seed.
        seed: u64,
        /// Uniform attribute values instead of the Table 1 marginals.
        uniform: bool,
    },
    /// Summarize a population CSV.
    Info {
        /// Input file.
        data: PathBuf,
    },
    /// Answer one SSD query with MR-SQE.
    Sample {
        /// Population CSV.
        data: PathBuf,
        /// Design JSON.
        spec: PathBuf,
        /// Simulated machines.
        machines: usize,
        /// RNG seed.
        seed: u64,
        /// Optional output CSV for the sample.
        out: Option<PathBuf>,
    },
    /// Verify a sample CSV against its design and report coverage.
    Audit {
        /// Population CSV.
        data: PathBuf,
        /// Design JSON.
        spec: PathBuf,
        /// Sample CSV (as written by `sample --out`).
        sample: PathBuf,
    },
    /// Answer an MSSD query (MR-MQE; MR-CPS when `optimize`).
    Mssd {
        /// Population CSV.
        data: PathBuf,
        /// Design JSON.
        spec: PathBuf,
        /// Simulated machines.
        machines: usize,
        /// RNG seed.
        seed: u64,
        /// Use MR-CPS to minimize survey cost.
        optimize: bool,
        /// Optional output prefix; survey `i` goes to `<prefix>-i.csv`.
        out_prefix: Option<String>,
    },
}

/// Parse command-line arguments (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let sub = it.next().ok_or_else(usage)?;
    let mut flags: Vec<(&str, Option<&str>)> = Vec::new();
    let rest: Vec<&String> = it.collect();
    let mut i = 0;
    while i < rest.len() {
        let flag = rest[i].as_str();
        if !flag.starts_with("--") {
            return Err(format!("unexpected argument {flag:?}"));
        }
        let bare = matches!(flag, "--uniform" | "--optimize");
        if bare {
            flags.push((flag, None));
            i += 1;
        } else {
            let value = rest
                .get(i + 1)
                .ok_or_else(|| format!("flag {flag} needs a value"))?;
            flags.push((flag, Some(value.as_str())));
            i += 2;
        }
    }
    let get = |name: &str| flags.iter().find(|(f, _)| *f == name).and_then(|(_, v)| *v);
    let has = |name: &str| flags.iter().any(|(f, _)| *f == name);
    let parse_usize = |name: &str, default: usize| -> Result<usize, String> {
        get(name)
            .map(|v| v.parse().map_err(|_| format!("bad value for {name}")))
            .unwrap_or(Ok(default))
    };
    let parse_u64 = |name: &str, default: u64| -> Result<u64, String> {
        get(name)
            .map(|v| v.parse().map_err(|_| format!("bad value for {name}")))
            .unwrap_or(Ok(default))
    };
    let require = |name: &str| -> Result<PathBuf, String> {
        get(name)
            .map(PathBuf::from)
            .ok_or_else(|| format!("missing required flag {name}"))
    };

    match sub.as_str() {
        "gen" => Ok(Command::Gen {
            out: require("--out")?,
            n: parse_usize("--n", 10_000)?,
            seed: parse_u64("--seed", 42)?,
            uniform: has("--uniform"),
        }),
        "info" => Ok(Command::Info {
            data: require("--data")?,
        }),
        "sample" => Ok(Command::Sample {
            data: require("--data")?,
            spec: require("--spec")?,
            machines: parse_usize("--machines", 10)?,
            seed: parse_u64("--seed", 42)?,
            out: get("--out").map(PathBuf::from),
        }),
        "audit" => Ok(Command::Audit {
            data: require("--data")?,
            spec: require("--spec")?,
            sample: require("--sample")?,
        }),
        "mssd" => Ok(Command::Mssd {
            data: require("--data")?,
            spec: require("--spec")?,
            machines: parse_usize("--machines", 10)?,
            seed: parse_u64("--seed", 42)?,
            optimize: has("--optimize"),
            out_prefix: get("--out-prefix").map(str::to_string),
        }),
        other => Err(format!("unknown subcommand {other:?}\n{}", usage())),
    }
}

fn usage() -> String {
    "usage:\n  \
     stratmr gen    --out FILE [--n N] [--seed S] [--uniform]\n  \
     stratmr info   --data FILE\n  \
     stratmr sample --data FILE --spec FILE [--machines M] [--seed S] [--out FILE]\n  \
     stratmr audit  --data FILE --spec FILE --sample FILE\n  \
     stratmr mssd   --data FILE --spec FILE [--machines M] [--seed S] [--optimize] [--out-prefix P]"
        .to_string()
}

/// One stratum of a JSON design.
#[derive(Debug, Deserialize)]
pub struct StratumSpec {
    /// Textual condition (see [`stratmr_query::parse_formula`]).
    pub r#where: String,
    /// Number of individuals to sample.
    pub take: usize,
}

/// A JSON SSD design.
#[derive(Debug, Deserialize)]
pub struct SsdSpec {
    /// The strata.
    pub strata: Vec<StratumSpec>,
}

/// A pairwise sharing penalty in a JSON MSSD design.
#[derive(Debug, Deserialize)]
pub struct PenaltySpec {
    /// The two survey indexes.
    pub pair: (usize, usize),
    /// The added cost when both share an individual.
    pub cost: f64,
}

/// A JSON MSSD design.
#[derive(Debug, Deserialize)]
pub struct MssdSpec {
    /// The surveys.
    pub surveys: Vec<SsdSpec>,
    /// Per-interview cost (same for every survey).
    #[serde(default = "default_interview")]
    pub interview_cost: f64,
    /// `"max"` (one interview covers a shared individual) or `"sum"`
    /// (indifference to sharing).
    #[serde(default = "default_sharing")]
    pub sharing: String,
    /// Pairwise penalties.
    #[serde(default)]
    pub penalties: Vec<PenaltySpec>,
}

fn default_interview() -> f64 {
    4.0
}

fn default_sharing() -> String {
    "max".into()
}

/// Domain points the disjointness check may enumerate per SSD design.
const DISJOINT_BUDGET: u128 = 10_000_000;

/// Build an [`SsdQuery`] from a JSON design against a schema. §3.2.1
/// requires the strata to be pairwise disjoint: a design whose strata
/// overlap, or whose disjointness cannot be verified, is an error.
pub(crate) fn build_ssd(spec: &SsdSpec, schema: &Schema) -> Result<SsdQuery, Box<dyn Error>> {
    let mut constraints = Vec::with_capacity(spec.strata.len());
    for s in &spec.strata {
        let formula =
            parse_formula(&s.r#where, schema).map_err(|e| format!("in {:?}: {e}", s.r#where))?;
        constraints.push(StratumConstraint::new(formula, s.take));
    }
    let query = SsdQuery::new(constraints);
    match check_disjoint_static(&query, schema, DISJOINT_BUDGET) {
        StaticCheck::Disjoint => Ok(query),
        StaticCheck::Overlap {
            first,
            second,
            witness,
        } => {
            let values: Vec<String> = (schema.iter().zip(witness))
                .map(|((_, def), v)| format!("{}={v}", def.name))
                .collect();
            let (a, b) = (&spec.strata[first].r#where, &spec.strata[second].r#where);
            let both = values.join(" ");
            Err(format!(
                "strata {first} ({a:?}) and {second} ({b:?}) overlap: {both} satisfies both"
            )
            .into())
        }
        StaticCheck::TooLarge { points } => Err(format!(
            "cannot verify that the strata are disjoint: \
             {points} domain points exceed the budget of {DISJOINT_BUDGET}"
        )
        .into()),
    }
}

/// Build an [`MssdQuery`] from a JSON design against a schema.
pub(crate) fn build_mssd(spec: &MssdSpec, schema: &Schema) -> Result<MssdQuery, Box<dyn Error>> {
    if spec.surveys.len() > MAX_SURVEYS {
        return Err(format!(
            "surveys: {} surveys given, at most {MAX_SURVEYS} are supported",
            spec.surveys.len()
        )
        .into());
    }
    let queries: Vec<SsdQuery> = spec
        .surveys
        .iter()
        .enumerate()
        .map(|(i, s)| build_ssd(s, schema).map_err(|e| format!("surveys[{i}]: {e}")))
        .collect::<Result<_, _>>()?;
    let base = match spec.sharing.as_str() {
        "max" => SharingBase::Max,
        "sum" => SharingBase::Sum,
        other => return Err(format!("unknown sharing rule {other:?} (use max|sum)").into()),
    };
    let mut costs = CostModel::new(vec![spec.interview_cost; queries.len()], base);
    for (k, p) in spec.penalties.iter().enumerate() {
        let (i, j) = p.pair;
        if i == j {
            return Err(format!("penalties[{k}].pair: names survey {i} twice").into());
        }
        if i.max(j) >= queries.len() {
            return Err(format!(
                "penalties[{k}].pair: survey {} out of range ({} surveys)",
                i.max(j),
                queries.len()
            )
            .into());
        }
        costs = costs.with_penalty(i, j, p.cost);
    }
    Ok(MssdQuery::new(queries, costs))
}

fn load_population(path: &PathBuf) -> Result<Dataset, Box<dyn Error>> {
    let schema = DblpGenerator::schema();
    let file = File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    Ok(read_csv(&schema, BufReader::new(file))?)
}

fn write_sample(path: &PathBuf, schema: &Schema, answer: &SsdAnswer) -> Result<(), Box<dyn Error>> {
    let sample = Dataset::new(schema.clone(), answer.iter().cloned().collect());
    let file = File::create(path)?;
    write_csv(&sample, BufWriter::new(file))?;
    Ok(())
}

/// Execute a parsed command.
pub fn run(command: Command) -> Result<(), Box<dyn Error>> {
    match command {
        Command::Gen {
            out,
            n,
            seed,
            uniform,
        } => {
            let data = if uniform {
                generate_uniform(n, seed, 100_000)
            } else {
                DblpGenerator::new(DblpConfig::default()).generate(n, seed)
            };
            let file = File::create(&out)?;
            write_csv(&data, BufWriter::new(file))?;
            println!("wrote {} individuals to {}", n, out.display());
        }
        Command::Info { data } => {
            let pop = load_population(&data)?;
            println!("{} individuals", pop.len());
            let schema = pop.schema().clone();
            for (aid, def) in schema.iter() {
                let mut min = i64::MAX;
                let mut max = i64::MIN;
                let mut sum = 0i128;
                for t in pop.tuples() {
                    let v = t.get(aid);
                    min = min.min(v);
                    max = max.max(v);
                    sum += v as i128;
                }
                let mean = sum as f64 / pop.len().max(1) as f64;
                println!(
                    "  {:<6} min {:>6}  max {:>6}  mean {:>9.2}",
                    def.name, min, max, mean
                );
            }
        }
        Command::Sample {
            data,
            spec,
            machines,
            seed,
            out,
        } => {
            let pop = load_population(&data)?;
            let schema = pop.schema().clone();
            let spec: SsdSpec = serde_json::from_reader(BufReader::new(File::open(&spec)?))?;
            let query = build_ssd(&spec, &schema)?;
            let dist = pop.distribute(machines, machines * 4, Placement::RoundRobin);
            let splits = to_input_splits(&dist);
            let run = try_mr_sqe_on_splits(&Cluster::new(machines), &splits, &query, seed)?;
            for (k, s) in query.constraints().iter().enumerate() {
                println!(
                    "stratum {k}: {} of {} requested — {}",
                    run.answer.stratum(k).len(),
                    s.frequency,
                    s.formula.display(&schema)
                );
            }
            println!(
                "simulated time on {machines} machines: {:.1} s",
                run.stats.sim.makespan_secs()
            );
            if let Some(out) = out {
                write_sample(&out, &schema, &run.answer)?;
                println!("sample written to {}", out.display());
            }
        }
        Command::Audit { data, spec, sample } => {
            let pop = load_population(&data)?;
            let schema = pop.schema().clone();
            let spec: SsdSpec = serde_json::from_reader(BufReader::new(File::open(&spec)?))?;
            let query = build_ssd(&spec, &schema)?;
            let sample_file = File::open(&sample)
                .map_err(|e| format!("cannot open {}: {e}", sample.display()))?;
            let sample_data = read_csv(&schema, BufReader::new(sample_file))?;

            // partition the sample by stratum and verify the design
            let mut strata: Vec<Vec<stratmr_population::Individual>> =
                vec![Vec::new(); query.len()];
            let mut unmatched = 0usize;
            for t in sample_data.tuples() {
                match query.matching_stratum(t) {
                    Some(k) => strata[k].push(t.clone()),
                    None => unmatched += 1,
                }
            }
            let mut ok = unmatched == 0;
            for (k, s) in query.constraints().iter().enumerate() {
                let have = strata[k].len();
                let want = s.frequency;
                let population: usize = pop.tuples().iter().filter(|t| s.matches(t)).count();
                let expected = want.min(population);
                let verdict = if have == expected { "ok" } else { "MISMATCH" };
                if have != expected {
                    ok = false;
                }
                println!(
                    "stratum {k}: {have}/{want} sampled, {population} in population                      ({:.2}% sampling fraction) — {verdict}  [{}]",
                    100.0 * have as f64 / population.max(1) as f64,
                    s.formula.display(&schema)
                );
            }
            if unmatched > 0 {
                println!("{unmatched} sampled individuals match no stratum — INVALID");
            }
            // duplicate detection within strata
            for (k, sample_k) in strata.iter().enumerate() {
                let mut ids: Vec<u64> = sample_k.iter().map(|t| t.id).collect();
                let before = ids.len();
                ids.sort_unstable();
                ids.dedup();
                if ids.len() != before {
                    println!("stratum {k} contains duplicate individuals — INVALID");
                    ok = false;
                }
            }
            if ok {
                println!("audit passed: the sample satisfies the design");
            } else {
                return Err("audit failed".into());
            }
        }
        Command::Mssd {
            data,
            spec,
            machines,
            seed,
            optimize,
            out_prefix,
        } => {
            let pop = load_population(&data)?;
            let schema = pop.schema().clone();
            let spec: MssdSpec = serde_json::from_reader(BufReader::new(File::open(&spec)?))?;
            let mssd = build_mssd(&spec, &schema)?;
            let dist = pop.distribute(machines, machines * 4, Placement::RoundRobin);
            let splits = to_input_splits(&dist);
            let cluster = Cluster::new(machines);
            let answer = if optimize {
                let run =
                    try_mr_cps_on_splits(&cluster, &splits, &mssd, CpsConfig::mr_cps(), seed)?;
                println!(
                    "MR-CPS: cost ${:.2} (program objective ${:.2}, {} residual top-ups)",
                    run.cost, run.solver_objective, run.residual_selections
                );
                run.answer
            } else {
                let run = try_mr_mqe_on_splits(&cluster, &splits, mssd.queries(), None, seed)?;
                println!(
                    "MR-MQE: cost ${:.2} (no sharing optimization)",
                    run.answer.cost(mssd.costs())
                );
                run.answer
            };
            let hist = answer.sharing_histogram(mssd.len());
            println!(
                "{} unique individuals across {} selections; sharing histogram {:?}",
                answer.unique_individuals(),
                answer.total_selections(),
                hist
            );
            if let Some(prefix) = out_prefix {
                for (i, a) in answer.answers().iter().enumerate() {
                    let path = PathBuf::from(format!("{prefix}-{i}.csv"));
                    write_sample(&path, &schema, a)?;
                    println!("survey {i} written to {}", path.display());
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_gen_command() {
        let cmd = parse_args(&args("gen --out pop.csv --n 500 --seed 7 --uniform")).unwrap();
        assert_eq!(
            cmd,
            Command::Gen {
                out: "pop.csv".into(),
                n: 500,
                seed: 7,
                uniform: true,
            }
        );
    }

    #[test]
    fn defaults_apply() {
        let cmd = parse_args(&args("sample --data d.csv --spec q.json")).unwrap();
        match cmd {
            Command::Sample {
                machines,
                seed,
                out,
                ..
            } => {
                assert_eq!(machines, 10);
                assert_eq!(seed, 42);
                assert!(out.is_none());
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn missing_flags_and_unknown_commands_error() {
        assert!(parse_args(&args("gen")).unwrap_err().contains("--out"));
        assert!(parse_args(&args("explode"))
            .unwrap_err()
            .contains("unknown"));
        assert!(parse_args(&args("gen --out"))
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse_args(&[]).is_err());
        assert!(parse_args(&args("gen stray --out f"))
            .unwrap_err()
            .contains("unexpected"));
    }

    #[test]
    fn ssd_spec_builds_query() {
        let schema = DblpGenerator::schema();
        let spec: SsdSpec = serde_json::from_str(
            r#"{ "strata": [
                { "where": "fy < 1990", "take": 20 },
                { "where": "fy >= 1990 && nop >= 50", "take": 30 }
            ]}"#,
        )
        .unwrap();
        let q = build_ssd(&spec, &schema).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.total_frequency(), 50);
    }

    /// An SSD spec with one `take: 1` stratum per condition.
    fn ssd_spec(conditions: &[&str]) -> SsdSpec {
        let stratum = |w: &&str| StratumSpec {
            r#where: w.to_string(),
            take: 1,
        };
        SsdSpec {
            strata: conditions.iter().map(stratum).collect(),
        }
    }

    #[test]
    fn bad_formula_in_spec_is_reported() {
        let schema = DblpGenerator::schema();
        let spec: SsdSpec =
            serde_json::from_str(r#"{ "strata": [ { "where": "height > 2", "take": 1 } ] }"#)
                .unwrap();
        let err = build_ssd(&spec, &schema).unwrap_err();
        assert!(err.to_string().contains("unknown attribute"), "{err}");
    }

    #[test]
    fn overlapping_strata_in_spec_are_rejected() {
        let schema = DblpGenerator::schema();
        let spec = ssd_spec(&["fy < 1990", "fy >= 1985"]);
        let err = build_ssd(&spec, &schema).unwrap_err().to_string();
        assert!(
            err.starts_with("strata 0 (\"fy < 1990\") and 1 (\"fy >= 1985\") overlap: "),
            "{err}"
        );
        let fy = err.split("fy=").nth(1).and_then(|v| v.split(' ').next());
        let fy: i64 = fy.and_then(|v| v.parse().ok()).expect("witness names fy");
        assert!((1985..1990).contains(&fy), "{err}");
    }

    #[test]
    fn overlapping_survey_in_mssd_spec_is_rejected() {
        let schema = DblpGenerator::schema();
        let spec = MssdSpec {
            surveys: vec![
                ssd_spec(&["fy < 1990"]),
                ssd_spec(&["nop >= 10", "nop <= 10"]),
            ],
            ..mssd_spec(0, "[]")
        };
        let err = build_mssd(&spec, &schema).unwrap_err().to_string();
        assert!(err.starts_with("surveys[1]: strata 0 "), "{err}");
        assert!(err.contains(": nop=10 "), "{err}");
    }

    #[test]
    fn unverifiable_disjointness_is_reported() {
        let schema = DblpGenerator::schema();
        let every_attribute: Vec<String> = schema
            .iter()
            .map(|(_, a)| format!("{} in [{}, {}]", a.name, a.min + 2, a.min + 8))
            .collect();
        let spec = ssd_spec(&[&every_attribute.join(" && ")]);
        let err = build_ssd(&spec, &schema).unwrap_err().to_string();
        assert!(
            err.starts_with("cannot verify that the strata are disjoint"),
            "{err}"
        );
    }

    #[test]
    fn mssd_spec_builds_query_with_costs() {
        let schema = DblpGenerator::schema();
        let spec: MssdSpec = serde_json::from_str(
            r#"{
                "surveys": [
                    { "strata": [ { "where": "fy < 1990", "take": 5 } ] },
                    { "strata": [ { "where": "nop >= 10", "take": 5 } ] }
                ],
                "interview_cost": 2.5,
                "penalties": [ { "pair": [0, 1], "cost": 7.0 } ]
            }"#,
        )
        .unwrap();
        let mssd = build_mssd(&spec, &schema).unwrap();
        assert_eq!(mssd.len(), 2);
        assert_eq!(mssd.costs().interview_cost(0), 2.5);
        use stratmr_query::SurveySet;
        assert_eq!(mssd.costs().cost(SurveySet::from_iter([0, 1])), 9.5);
    }

    #[test]
    fn unknown_sharing_rule_rejected() {
        let schema = DblpGenerator::schema();
        let spec: MssdSpec =
            serde_json::from_str(r#"{ "surveys": [], "sharing": "mystery" }"#).unwrap();
        assert!(build_mssd(&spec, &schema).is_err());
    }

    /// An MSSD spec with `surveys` one-stratum surveys and the given
    /// `penalties` JSON array.
    fn mssd_spec(surveys: usize, penalties: &str) -> MssdSpec {
        let survey = r#"{ "strata": [ { "where": "fy < 1990", "take": 1 } ] }"#;
        let surveys = vec![survey; surveys].join(", ");
        serde_json::from_str(&format!(
            r#"{{ "surveys": [{surveys}], "penalties": {penalties} }}"#
        ))
        .unwrap()
    }

    #[test]
    fn too_many_surveys_rejected() {
        let schema = DblpGenerator::schema();
        assert!(build_mssd(&mssd_spec(MAX_SURVEYS, "[]"), &schema).is_ok());
        let err = build_mssd(&mssd_spec(MAX_SURVEYS + 1, "[]"), &schema).unwrap_err();
        assert!(err.to_string().starts_with("surveys:"), "{err}");
    }

    #[test]
    fn penalty_naming_one_survey_twice_rejected() {
        let schema = DblpGenerator::schema();
        let spec = mssd_spec(2, r#"[ { "pair": [1, 1], "cost": 3.0 } ]"#);
        let err = build_mssd(&spec, &schema).unwrap_err();
        assert!(err.to_string().starts_with("penalties[0].pair:"), "{err}");
    }

    #[test]
    fn penalty_outside_the_surveys_rejected() {
        let schema = DblpGenerator::schema();
        let spec = mssd_spec(
            2,
            r#"[ { "pair": [0, 1], "cost": 3.0 }, { "pair": [0, 2], "cost": 3.0 } ]"#,
        );
        let err = build_mssd(&spec, &schema).unwrap_err();
        assert!(err.to_string().starts_with("penalties[1].pair:"), "{err}");
    }

    #[test]
    fn end_to_end_gen_info_sample() {
        let dir = std::env::temp_dir().join(format!("stratmr-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("pop.csv");
        run(Command::Gen {
            out: data.clone(),
            n: 1_000,
            seed: 3,
            uniform: false,
        })
        .unwrap();
        run(Command::Info { data: data.clone() }).unwrap();

        let spec = dir.join("query.json");
        std::fs::write(
            &spec,
            r#"{ "strata": [
                { "where": "fy < 2000", "take": 5 },
                { "where": "fy >= 2000", "take": 10 }
            ]}"#,
        )
        .unwrap();
        let out = dir.join("sample.csv");
        run(Command::Sample {
            data: data.clone(),
            spec,
            machines: 3,
            seed: 1,
            out: Some(out.clone()),
        })
        .unwrap();
        let sample = read_csv(
            &DblpGenerator::schema(),
            BufReader::new(File::open(&out).unwrap()),
        )
        .unwrap();
        assert_eq!(sample.len(), 15);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_to_end_audit() {
        let dir = std::env::temp_dir().join(format!("stratmr-audit-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("pop.csv");
        run(Command::Gen {
            out: data.clone(),
            n: 1_500,
            seed: 6,
            uniform: false,
        })
        .unwrap();
        let spec = dir.join("query.json");
        std::fs::write(
            &spec,
            r#"{ "strata": [
                { "where": "fy < 2005", "take": 8 },
                { "where": "fy >= 2005", "take": 12 }
            ]}"#,
        )
        .unwrap();
        let out = dir.join("sample.csv");
        run(Command::Sample {
            data: data.clone(),
            spec: spec.clone(),
            machines: 2,
            seed: 2,
            out: Some(out.clone()),
        })
        .unwrap();
        // a genuine sample passes the audit
        run(Command::Audit {
            data: data.clone(),
            spec: spec.clone(),
            sample: out,
        })
        .unwrap();
        // a truncated sample fails it
        let bad = dir.join("bad.csv");
        let text = std::fs::read_to_string(dir.join("sample.csv")).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.truncate(lines.len() - 3);
        std::fs::write(&bad, lines.join("\n")).unwrap();
        let err = run(Command::Audit {
            data,
            spec,
            sample: bad,
        })
        .unwrap_err();
        assert!(err.to_string().contains("audit failed"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_to_end_mssd_optimized() {
        let dir = std::env::temp_dir().join(format!("stratmr-mssd-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("pop.csv");
        run(Command::Gen {
            out: data.clone(),
            n: 2_000,
            seed: 4,
            uniform: false,
        })
        .unwrap();
        let spec = dir.join("mssd.json");
        std::fs::write(
            &spec,
            r#"{
                "surveys": [
                    { "strata": [ { "where": "nop >= 1", "take": 10 } ] },
                    { "strata": [ { "where": "fy >= 1936", "take": 10 } ] }
                ]
            }"#,
        )
        .unwrap();
        run(Command::Mssd {
            data,
            spec,
            machines: 2,
            seed: 5,
            optimize: true,
            out_prefix: Some(dir.join("survey").to_string_lossy().into_owned()),
        })
        .unwrap();
        for i in 0..2 {
            let path = dir.join(format!("survey-{i}.csv"));
            let sample = read_csv(
                &DblpGenerator::schema(),
                BufReader::new(File::open(&path).unwrap()),
            )
            .unwrap();
            assert_eq!(sample.len(), 10, "survey {i}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
