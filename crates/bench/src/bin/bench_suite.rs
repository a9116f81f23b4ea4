//! The one runner of the evaluation: every experiment's report, its
//! versioned `BENCH_<experiment>.json` artifact and its
//! `target/experiments/` record.
//!
//! ```text
//! cargo run --release -p stratmr-bench --bin bench_suite -- \
//!     [--out <dir>] [--telemetry <out.json>] [--trace <out.json>] \
//!     [--uniform] [experiment ...]
//! ```
//!
//! With no experiment names, all of [`experiments::ALL`] run.
//! Artifacts land at the repository root by default (`--out`
//! overrides); setting `UPDATE_BASELINE=1` writes to `bench/baselines/`
//! instead, which is how the committed baselines are regenerated. Scale
//! comes from the usual `STRATMR_*` variables — the baselines and the
//! CI job use the same reduced configuration so artifacts stay
//! comparable. `--uniform` reruns on the §6.2.1 uniform dataset. With
//! exactly one experiment named, `--telemetry` and `--trace` write its
//! telemetry snapshot and Chrome trace.
//!
//! Every artifact is a pure function of code, seed and configuration
//! (simulated times depend on record and byte counts only, and
//! wall-clock fields never enter the artifact), so two runs at one
//! commit are byte-identical.

use std::path::PathBuf;
use stratmr_bench::env::DATA_SEED;
use stratmr_bench::experiments::{self, Obs};
use stratmr_bench::{ArtifactMeta, CliArgs, Runner};

fn main() {
    let cli = CliArgs::parse(Runner::Suite);
    let repo_root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out_dir = cli.out.clone().unwrap_or_else(|| {
        if std::env::var("UPDATE_BASELINE").is_ok_and(|v| v == "1") {
            repo_root.join("bench/baselines")
        } else {
            repo_root
        }
    });

    let env = cli.bench_env();
    println!(
        "bench_suite — pop {}, {} runs, scales {:?}, {} machines\n",
        env.config.population, env.config.runs, env.config.scales, env.config.machines
    );
    for exp in &cli.experiments {
        println!("=== {} ===", exp.name);
        let obs = Obs::full();
        let meta = ArtifactMeta::capture(exp.name, DATA_SEED, &env.config);
        let (out, artifact) = experiments::run_to_artifact(exp, &env, meta, &obs);
        print!("{}", out.text);
        cli.finish(&out, &artifact, &obs, &out_dir);
        println!();
    }
}
