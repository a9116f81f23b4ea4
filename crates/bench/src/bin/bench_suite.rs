//! Run every experiment of the evaluation through the shared runner
//! and emit one versioned `BENCH_<experiment>.json` artifact each.
//!
//! ```text
//! cargo run --release -p stratmr-bench --bin bench_suite -- \
//!     [--out <dir>] [experiment ...]
//! ```
//!
//! With no experiment names, all of [`experiments::ALL`] run. Artifacts
//! land at the repository root by default (`--out` overrides); setting
//! `UPDATE_BASELINE=1` writes to `bench/baselines/` instead, which is
//! how the committed baselines are regenerated. Scale comes from the
//! usual `STRATMR_*` variables — the baselines and the CI job use the
//! same reduced configuration so artifacts stay comparable.
//!
//! Every artifact is a pure function of code, seed and configuration
//! (simulated times depend on record and byte counts only, and
//! wall-clock fields never enter the artifact), so two runs at one
//! commit are byte-identical.

use std::path::PathBuf;
use stratmr_bench::{experiments, BenchEnv};

fn main() {
    let mut out_dir: Option<PathBuf> = None;
    let mut selected: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--out" {
            let path = args.next().unwrap_or_else(|| {
                eprintln!("usage: bench_suite [--out <dir>] [experiment ...]");
                std::process::exit(2);
            });
            out_dir = Some(path.into());
        } else if let Some(p) = a.strip_prefix("--out=") {
            out_dir = Some(p.into());
        } else if a.starts_with("--") {
            eprintln!("unknown flag {a}\nusage: bench_suite [--out <dir>] [experiment ...]");
            std::process::exit(2);
        } else {
            selected.push(a);
        }
    }
    for name in &selected {
        if !experiments::ALL.iter().any(|e| e.name == name) {
            eprintln!(
                "unknown experiment {name:?}; available: {}",
                experiments::ALL
                    .iter()
                    .map(|e| e.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            std::process::exit(2);
        }
    }
    let repo_root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out_dir = out_dir.unwrap_or_else(|| {
        if std::env::var("UPDATE_BASELINE").is_ok_and(|v| v == "1") {
            repo_root.join("bench/baselines")
        } else {
            repo_root
        }
    });

    let env = BenchEnv::from_env();
    println!(
        "bench_suite — pop {}, {} runs, scales {:?}, {} machines\n",
        env.config.population, env.config.runs, env.config.scales, env.config.machines
    );
    for exp in experiments::ALL {
        if !selected.is_empty() && !selected.iter().any(|s| s == exp.name) {
            continue;
        }
        println!("=== {} ===", exp.name);
        let (out, artifact) = experiments::run_to_artifact_captured(exp, &env);
        print!("{}", out.text);
        match artifact.write_to(&out_dir) {
            Ok(path) => println!(
                "artifact: {} ({} metrics, {} samples)\n",
                path.display(),
                artifact.metrics.len(),
                artifact.total_samples()
            ),
            Err(e) => {
                eprintln!(
                    "error: cannot write artifact for {} to {}: {e}",
                    exp.name,
                    out_dir.display()
                );
                std::process::exit(1);
            }
        }
    }
}
